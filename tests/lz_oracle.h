#ifndef UNILOG_TESTS_LZ_ORACLE_H_
#define UNILOG_TESTS_LZ_ORACLE_H_

// Byte-loop oracles for the Lz codec. Lz::CompressReference runs the same
// match kernel as the pooled compressor, so comparing the two cannot catch
// a change to which match the kernel picks. These copies keep the original
// byte-at-a-time match search and byte-at-a-time match copy, and tests
// require the production codec to emit and decode exactly the same bytes.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/coding.h"
#include "common/compress.h"

namespace unilog::lz_oracle {

inline uint32_t Hash4(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - 16);
}

inline void EmitLiterals(std::string* out, std::string_view input,
                         size_t begin, size_t end) {
  if (begin >= end) return;
  out->push_back('\x00');
  PutVarint64(out, end - begin);
  out->append(input.data() + begin, end - begin);
}

/// Greedy hash-chain parse with fresh state and a byte-at-a-time match
/// extension over every chain candidate: the compressor's output format
/// and match choice, spelled out the slow way.
inline std::string Compress(std::string_view input) {
  constexpr size_t kMinMatch = Lz::kMinMatch;
  std::string out;
  PutVarint64(&out, input.size());
  if (input.empty()) return out;
  std::vector<uint32_t> head(size_t{1} << 16, 0);  // pos + 1, 0 = empty
  std::vector<uint32_t> prev(input.size(), 0);

  size_t literal_start = 0;
  size_t i = 0;
  while (i + kMinMatch <= input.size()) {
    uint32_t h = Hash4(input.data() + i);
    size_t best_len = 0;
    size_t best_dist = 0;
    uint32_t cand = head[h];
    int steps = 0;
    while (cand != 0 && steps < Lz::kMaxChainSteps) {
      size_t pos = cand - 1;
      if (i - pos > Lz::kWindow) break;
      size_t len = 0;
      size_t max_len = input.size() - i;
      while (len < max_len && input[pos + len] == input[i + len]) ++len;
      if (len >= kMinMatch && len > best_len) {
        best_len = len;
        best_dist = i - pos;
      }
      cand = prev[pos];
      ++steps;
    }

    if (best_len >= kMinMatch) {
      EmitLiterals(&out, input, literal_start, i);
      out.push_back('\x01');
      PutVarint64(&out, best_dist);
      PutVarint64(&out, best_len);
      size_t match_end = i + best_len;
      size_t insert_end =
          match_end + kMinMatch <= input.size() ? match_end
                                                : input.size() - kMinMatch + 1;
      size_t step = best_len > 64 ? 4 : 1;
      for (size_t j = i; j < insert_end; j += step) {
        uint32_t hj = Hash4(input.data() + j);
        prev[j] = head[hj];
        head[hj] = static_cast<uint32_t>(j + 1);
      }
      i = match_end;
      literal_start = i;
    } else {
      prev[i] = head[h];
      head[h] = static_cast<uint32_t>(i + 1);
      ++i;
    }
  }
  EmitLiterals(&out, input, literal_start, input.size());
  return out;
}

/// Appends a back-reference of `len` bytes at distance `dist` to *out one
/// byte at a time, which handles a match overlapping its own output.
inline void CopyMatch(std::string* out, size_t dist, size_t len) {
  size_t src = out->size() - dist;
  for (size_t k = 0; k < len; ++k) out->push_back((*out)[src + k]);
}

/// FNV-1a over `bytes`, continuing from `h`.
inline uint64_t Fnv1a(uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace unilog::lz_oracle

#endif  // UNILOG_TESTS_LZ_ORACLE_H_
