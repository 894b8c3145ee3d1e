#include "common/compress.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>

#include "common/coding.h"

namespace unilog {

namespace {

// Relaxed is sufficient: the probes are monotonically increasing tallies
// read only at quiescence points in tests and benches.
std::atomic<uint64_t> g_compress_calls{0};
std::atomic<uint64_t> g_decompress_calls{0};

constexpr size_t kHashBits = 16;
constexpr size_t kHashSize = 1u << kHashBits;

uint32_t Hash4(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

// Length of the common prefix of a[0, max_len) and b[0, max_len), compared
// eight bytes at a time: the first differing byte of two words is the
// lowest set byte of their XOR on a little-endian host (highest on a
// big-endian one). The last fewer-than-8 bytes are compared one by one.
size_t MatchLength(const char* a, const char* b, size_t max_len) {
  size_t len = 0;
  while (len + 8 <= max_len) {
    uint64_t x, y;
    std::memcpy(&x, a + len, 8);
    std::memcpy(&y, b + len, 8);
    if (uint64_t diff = x ^ y; diff != 0) {
      if constexpr (std::endian::native == std::endian::little) {
        return len + (std::countr_zero(diff) >> 3);
      } else {
        return len + (std::countl_zero(diff) >> 3);
      }
    }
    len += 8;
  }
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}

void EmitLiterals(std::string* out, std::string_view input, size_t begin,
                  size_t end) {
  if (begin >= end) return;
  out->push_back('\x00');
  PutVarint64(out, end - begin);
  out->append(input.data() + begin, end - begin);
}

// Decodes one token from `dec` and appends its bytes to *out, which holds
// at most `expected_len` bytes (the block's length header). A token that
// would grow *out past the header is rejected before anything is copied,
// so a corrupt length can neither spin nor allocate beyond what the header
// claims.
Status DecodeToken(Decoder* dec, uint64_t expected_len, std::string* out) {
  std::string_view tag;
  UNILOG_RETURN_NOT_OK(dec->GetBytes(1, &tag));
  const uint64_t room = expected_len - out->size();
  if (tag[0] == '\x00') {
    std::string_view lit;
    UNILOG_RETURN_NOT_OK(dec->GetLengthPrefixed(&lit));
    if (lit.size() > room) return Status::Corruption("lz: length mismatch");
    out->append(lit.data(), lit.size());
    return Status::OK();
  }
  if (tag[0] != '\x01') return Status::Corruption("lz: bad token tag");
  uint64_t dist, len;
  UNILOG_RETURN_NOT_OK(dec->GetVarint64(&dist));
  UNILOG_RETURN_NOT_OK(dec->GetVarint64(&len));
  if (dist == 0 || dist > out->size()) {
    return Status::Corruption("lz: bad match distance");
  }
  if (len > room) return Status::Corruption("lz: length mismatch");
  const size_t start = out->size();
  out->resize(start + len);
  char* dst = out->data() + start;
  const char* src = dst - dist;
  // A match may overlap its own output (dist < len). Chunks of at most
  // `dist` bytes never overlap, and each reads only bytes already written.
  for (size_t done = 0; done < len;) {
    const size_t chunk =
        static_cast<size_t>(std::min<uint64_t>(len - done, dist));
    std::memcpy(dst + done, src + done, chunk);
    done += chunk;
  }
  return Status::OK();
}

}  // namespace

void Lz::Compressor::CompressTo(std::string_view input, std::string* out) {
  g_compress_calls.fetch_add(1, std::memory_order_relaxed);
  out->clear();
  PutVarint64(out, input.size());
  if (input.empty()) return;

  if (head_.empty()) head_.assign(kHashSize, 0);
  if (++epoch_ == 0) {
    // The 32-bit epoch wrapped: entries tagged with the old epoch 0 would
    // read as live again, so hard-reset once every 2^32 calls.
    std::fill(head_.begin(), head_.end(), 0);
    epoch_ = 1;
  }
  if (prev_.size() < input.size()) prev_.resize(input.size());
  const uint64_t epoch_tag = static_cast<uint64_t>(epoch_) << 32;

  // head entry for hash h: most recent position with hash h (+1, 0 =
  // empty). Entries from earlier epochs (earlier inputs) are empty.
  auto head_get = [&](uint32_t h) -> uint32_t {
    uint64_t e = head_[h];
    return (e >> 32) == epoch_ ? static_cast<uint32_t>(e) : 0;
  };
  auto head_set = [&](uint32_t h, uint32_t pos_plus_1) {
    head_[h] = epoch_tag | pos_plus_1;
  };

  size_t literal_start = 0;
  size_t i = 0;
  while (i + kMinMatch <= input.size()) {
    uint32_t h = Hash4(input.data() + i);
    size_t best_len = 0;
    size_t best_dist = 0;
    uint32_t cand = head_get(h);
    int steps = 0;
    const size_t max_len = input.size() - i;
    const char* here = input.data() + i;
    while (cand != 0 && steps < kMaxChainSteps) {
      size_t pos = cand - 1;
      if (i - pos > kWindow) break;
      cand = prev_[pos];
      ++steps;
      const char* there = input.data() + pos;
      // A candidate replaces the best only with a strictly longer match, so
      // one that differs at byte best_len cannot win. (best_len < max_len
      // here: the walk stops once a match reaches the input end.)
      if (best_len != 0 && there[best_len] != here[best_len]) continue;
      size_t len = MatchLength(there, here, max_len);
      if (len >= kMinMatch && len > best_len) {
        best_len = len;
        best_dist = i - pos;
        if (len == max_len) break;  // no later candidate can be longer
      }
    }

    if (best_len >= kMinMatch) {
      EmitLiterals(out, input, literal_start, i);
      out->push_back('\x01');
      PutVarint64(out, best_dist);
      PutVarint64(out, best_len);
      // Insert hash entries for the skipped region (sparsely for speed).
      size_t match_end = i + best_len;
      size_t insert_end =
          match_end + kMinMatch <= input.size() ? match_end
                                                : (input.size() >= kMinMatch
                                                       ? input.size() - kMinMatch + 1
                                                       : 0);
      size_t step = best_len > 64 ? 4 : 1;
      for (size_t j = i; j < insert_end; j += step) {
        uint32_t hj = Hash4(input.data() + j);
        prev_[j] = head_get(hj);
        head_set(hj, static_cast<uint32_t>(j + 1));
      }
      i = match_end;
      literal_start = i;
    } else {
      prev_[i] = head_get(h);
      head_set(h, static_cast<uint32_t>(i + 1));
      ++i;
    }
  }
  EmitLiterals(out, input, literal_start, input.size());
}

std::string Lz::Compressor::Compress(std::string_view input) {
  std::string out;
  CompressTo(input, &out);
  return out;
}

Lz::Compressor& Lz::Pooled() {
  thread_local Compressor compressor;
  return compressor;
}

std::string Lz::Compress(std::string_view input) {
  return Pooled().Compress(input);
}

std::string Lz::CompressReference(std::string_view input) {
  Compressor fresh;
  return fresh.Compress(input);
}

Result<std::string> Lz::Decompress(std::string_view block) {
  g_decompress_calls.fetch_add(1, std::memory_order_relaxed);
  Decoder dec(block);
  uint64_t expected_len;
  UNILOG_RETURN_NOT_OK(dec.GetVarint64(&expected_len));
  std::string out;
  // Cap the reservation: a corrupt header must not drive a huge allocation.
  out.reserve(static_cast<size_t>(std::min<uint64_t>(expected_len, 1u << 20)));
  while (!dec.AtEnd()) {
    UNILOG_RETURN_NOT_OK(DecodeToken(&dec, expected_len, &out));
  }
  if (out.size() != expected_len) {
    return Status::Corruption("lz: length mismatch");
  }
  return out;
}

Lz::IncrementalDecompressor::IncrementalDecompressor(std::string_view block) {
  g_decompress_calls.fetch_add(1, std::memory_order_relaxed);
  Decoder dec(block);
  Status st = dec.GetVarint64(&expected_);
  if (!st.ok()) {
    status_ = st;
    return;
  }
  rest_ = block.substr(dec.position());
  // Cap the reservation: a corrupt header must not drive a huge allocation.
  out_.reserve(static_cast<size_t>(
      std::min<uint64_t>(expected_, 1u << 20)));
}

Status Lz::IncrementalDecompressor::DecodeUntil(size_t target) {
  if (!status_.ok()) return status_;
  while (out_.size() < target) {
    if (rest_.empty()) {
      // True end of block: only an error if the length header disagrees.
      if (out_.size() != expected_) {
        status_ = Status::Corruption("lz: truncated block");
        return status_;
      }
      return Status::OK();
    }
    Decoder dec(rest_);
    status_ = DecodeToken(&dec, expected_, &out_);
    if (!status_.ok()) return status_;
    rest_ = rest_.substr(dec.position());
  }
  return Status::OK();
}

uint64_t Lz::CompressCallCount() {
  return g_compress_calls.load(std::memory_order_relaxed);
}

uint64_t Lz::DecompressCallCount() {
  return g_decompress_calls.load(std::memory_order_relaxed);
}

void Lz::ResetCompressionProbes() {
  g_compress_calls.store(0, std::memory_order_relaxed);
  g_decompress_calls.store(0, std::memory_order_relaxed);
}

}  // namespace unilog
