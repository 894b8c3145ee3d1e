#include "analytics/pig_stdlib.h"

#include <atomic>
#include <memory>
#include <mutex>

#include "analytics/udfs.h"
#include "columnar/rcfile.h"
#include "common/compress.h"
#include "common/utf8.h"
#include "dataflow/columnar_scan.h"
#include "events/client_event.h"
#include "sessions/dictionary.h"
#include "sessions/session_sequence.h"

namespace unilog::analytics {

using dataflow::PigInterpreter;
using dataflow::Relation;
using dataflow::Value;

namespace {

/// Shared state between the loaders and the dictionary-dependent UDFs.
struct Stdlib {
  const hdfs::MiniHdfs* warehouse = nullptr;
  std::shared_ptr<sessions::EventDictionary> dict;

  Result<std::shared_ptr<sessions::EventDictionary>> Dictionary() const {
    if (dict == nullptr) {
      return Status::FailedPrecondition(
          "no sequence partition loaded yet (LOAD ... USING "
          "SessionSequencesLoader() first)");
    }
    return dict;
  }
};

/// A UDF's dictionary-bound state, built at its first evaluation (DEFINE
/// may run before LOAD in a script). FOREACH evaluates a UDF from several
/// executor threads at once, so the state is built under a mutex, once,
/// and published through an atomic pointer; a failed build (no sequence
/// partition loaded yet) is retried at the next evaluation.
template <typename T>
class LazyBinding {
 public:
  /// `make` returns Result<T>.
  template <typename Make>
  Result<const T*> Get(const Make& make) {
    if (const T* bound = bound_.load(std::memory_order_acquire)) return bound;
    std::lock_guard<std::mutex> lock(mu_);
    if (value_ == nullptr) {
      UNILOG_ASSIGN_OR_RETURN(T value, make());
      value_ = std::make_unique<T>(std::move(value));
      bound_.store(value_.get(), std::memory_order_release);
    }
    return value_.get();
  }

 private:
  std::mutex mu_;
  std::unique_ptr<T> value_;
  std::atomic<const T*> bound_{nullptr};
};

/// Binds a CountClientEvents for `pattern` to the current dictionary.
Result<CountClientEvents> BindCounter(const Stdlib& lib,
                                      const std::string& pattern) {
  UNILOG_ASSIGN_OR_RETURN(auto dict, lib.Dictionary());
  return CountClientEvents(*dict, events::EventPattern(pattern));
}

Result<Relation> LoadSequences(std::shared_ptr<Stdlib> lib,
                               const std::string& path) {
  // path is a partition dir like /session_sequences/2012-08-21.
  UNILOG_ASSIGN_OR_RETURN(std::string dict_blob,
                          lib->warehouse->ReadFile(path + "/_dictionary"));
  UNILOG_ASSIGN_OR_RETURN(sessions::EventDictionary dict,
                          sessions::EventDictionary::Deserialize(dict_blob));
  lib->dict = std::make_shared<sessions::EventDictionary>(std::move(dict));

  Relation rel({"user_id", "session_id", "ip", "sequence", "duration"});
  UNILOG_ASSIGN_OR_RETURN(auto files, lib->warehouse->ListRecursive(path));
  for (const auto& file : files) {
    size_t slash = file.path.rfind('/');
    if (file.path[slash + 1] == '_') continue;
    UNILOG_ASSIGN_OR_RETURN(std::string blob,
                            lib->warehouse->ReadFile(file.path));
    UNILOG_ASSIGN_OR_RETURN(std::string body, Lz::Decompress(blob));
    sessions::SequenceRecordReader reader(body);
    sessions::SessionSequence seq;
    while (true) {
      Status st = reader.Next(&seq);
      if (st.IsNotFound()) break;
      UNILOG_RETURN_NOT_OK(st);
      UNILOG_RETURN_NOT_OK(rel.AddRow(
          {Value::Int(seq.user_id), Value::Str(seq.session_id),
           Value::Str(seq.ip), Value::Str(seq.sequence),
           Value::Int(seq.duration_seconds)}));
    }
  }
  return rel;
}

Status AppendEventRow(const events::ClientEvent& ev, Relation* rel) {
  return rel->AddRow({Value::Str(events::EventInitiatorName(ev.initiator)),
                      Value::Str(ev.event_name), Value::Int(ev.user_id),
                      Value::Str(ev.session_id), Value::Str(ev.ip),
                      Value::Int(ev.timestamp)});
}

Result<Relation> LoadClientEvents(std::shared_ptr<Stdlib> lib,
                                  const std::string& path) {
  Relation rel({"initiator", "event_name", "user_id", "session_id", "ip",
                "timestamp"});
  UNILOG_ASSIGN_OR_RETURN(auto files, lib->warehouse->ListRecursive(path));
  for (const auto& file : files) {
    size_t slash = file.path.rfind('/');
    if (file.path[slash + 1] == '_') continue;
    UNILOG_ASSIGN_OR_RETURN(std::string blob,
                            lib->warehouse->ReadFile(file.path));
    // A warehoused hour may hold columnar (RCFile) or legacy
    // framed-compressed parts; sniff per file so mixed directories work.
    if (columnar::IsRcFile(blob)) {
      columnar::RcFileReader reader(blob);
      std::vector<events::ClientEvent> events;
      UNILOG_RETURN_NOT_OK(reader.ReadAll(columnar::kAllColumns, &events));
      for (const auto& ev : events) {
        UNILOG_RETURN_NOT_OK(AppendEventRow(ev, &rel));
      }
      continue;
    }
    UNILOG_ASSIGN_OR_RETURN(std::string body, Lz::Decompress(blob));
    events::ClientEventReader reader(body);
    events::ClientEvent ev;
    while (true) {
      Status st = reader.Next(&ev);
      if (st.IsNotFound()) break;
      UNILOG_RETURN_NOT_OK(st);
      UNILOG_RETURN_NOT_OK(AppendEventRow(ev, &rel));
    }
  }
  return rel;
}

}  // namespace

void InstallPigStdlib(PigInterpreter* pig, const hdfs::MiniHdfs* warehouse,
                      obs::MetricsRegistry* metrics) {
  auto lib = std::make_shared<Stdlib>();
  lib->warehouse = warehouse;

  pig->RegisterLoader(
      "SessionSequencesLoader",
      [lib](const std::string& path, const std::vector<std::string>&) {
        return LoadSequences(lib, path);
      });
  pig->RegisterLoader(
      "ClientEventsLoader",
      [lib](const std::string& path, const std::vector<std::string>&) {
        return LoadClientEvents(lib, path);
      });
  pig->RegisterScanLoader(
      "ColumnarEventsLoader",
      [lib, metrics](const std::string& path, const std::vector<std::string>&)
          -> Result<std::shared_ptr<dataflow::PushdownScan>> {
        UNILOG_ASSIGN_OR_RETURN(
            auto scan,
            dataflow::ColumnarEventScan::Open(lib->warehouse, path, metrics));
        return std::shared_ptr<dataflow::PushdownScan>(std::move(scan));
      });

  pig->RegisterUdfFactory(
      "CountClientEvents",
      [lib](const std::vector<std::string>& args)
          -> Result<PigInterpreter::ScalarUdf> {
        if (args.size() != 1) {
          return Status::InvalidArgument(
              "CountClientEvents takes one pattern argument");
        }
        std::string pattern = args[0];
        auto counter = std::make_shared<LazyBinding<CountClientEvents>>();
        return PigInterpreter::ScalarUdf(
            [lib, pattern, counter](const std::vector<Value>& call_args)
                -> Result<Value> {
              if (call_args.size() != 1 || !call_args[0].is_str()) {
                return Status::InvalidArgument(
                    "CountClientEvents(sequence) expects one string column");
              }
              UNILOG_ASSIGN_OR_RETURN(
                  const CountClientEvents* c,
                  counter->Get([&] { return BindCounter(*lib, pattern); }));
              return Value::Int(
                  static_cast<int64_t>(c->Count(call_args[0].str_value())));
            });
      });

  pig->RegisterUdfFactory(
      "ContainsClientEvents",
      [lib](const std::vector<std::string>& args)
          -> Result<PigInterpreter::ScalarUdf> {
        if (args.size() != 1) {
          return Status::InvalidArgument(
              "ContainsClientEvents takes one pattern argument");
        }
        std::string pattern = args[0];
        auto counter = std::make_shared<LazyBinding<CountClientEvents>>();
        return PigInterpreter::ScalarUdf(
            [lib, pattern, counter](const std::vector<Value>& call_args)
                -> Result<Value> {
              if (call_args.size() != 1 || !call_args[0].is_str()) {
                return Status::InvalidArgument(
                    "ContainsClientEvents(sequence) expects one string "
                    "column");
              }
              UNILOG_ASSIGN_OR_RETURN(
                  const CountClientEvents* c,
                  counter->Get([&] { return BindCounter(*lib, pattern); }));
              return Value::Int(c->Count(call_args[0].str_value()) > 0 ? 1 : 0);
            });
      });

  pig->RegisterUdfFactory(
      "ClientEventsFunnel",
      [lib](const std::vector<std::string>& args)
          -> Result<PigInterpreter::ScalarUdf> {
        if (args.empty()) {
          return Status::InvalidArgument(
              "ClientEventsFunnel needs at least one stage event");
        }
        std::vector<std::string> stages = args;
        auto funnel = std::make_shared<LazyBinding<Funnel>>();
        return PigInterpreter::ScalarUdf(
            [lib, stages, funnel](const std::vector<Value>& call_args)
                -> Result<Value> {
              if (call_args.size() != 1 || !call_args[0].is_str()) {
                return Status::InvalidArgument(
                    "ClientEventsFunnel(sequence) expects one string column");
              }
              UNILOG_ASSIGN_OR_RETURN(
                  const Funnel* f, funnel->Get([&]() -> Result<Funnel> {
                    UNILOG_ASSIGN_OR_RETURN(auto dict, lib->Dictionary());
                    return Funnel::Make(*dict, stages);
                  }));
              return Value::Int(static_cast<int64_t>(
                  f->StagesCompleted(call_args[0].str_value())));
            });
      });

  pig->RegisterUdfFactory(
      "EventCount",
      [](const std::vector<std::string>&)
          -> Result<PigInterpreter::ScalarUdf> {
        return PigInterpreter::ScalarUdf(
            [](const std::vector<Value>& call_args) -> Result<Value> {
              if (call_args.size() != 1 || !call_args[0].is_str()) {
                return Status::InvalidArgument(
                    "EventCount(sequence) expects one string column");
              }
              return Value::Int(static_cast<int64_t>(
                  Utf8Length(call_args[0].str_value())));
            });
      });
}

}  // namespace unilog::analytics
