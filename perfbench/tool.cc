// Benchmark tool: the C++ half of the end-to-end benchmark that
// perfbench/run.py orchestrates. It reaches the system only through public
// functions, the two wire protocols and the daemons' own outputs:
//
//   prep            builds sealed upload spools for a simulated fleet
//   upload          closed loop: workers drain spools into a running ingestd
//   serve           open loop: scheduled uploads and queries against a
//                   running ingestd + queryd, every reply checked
//   verify-archive  oracle: every acked meter's .symbols equals its spool
//   offline-check   oracle: every household's .symbols equals a re-encode
//   offline-trace   the offline pipeline in-process, one span per layer call
//   info            build facts (NDEBUG) for the result fingerprint, and the
//                   live upload rate that sizes serve's input
//
// With --trace 1, `upload` and `serve` switch to a framed uploader that
// sends the same frames client::UploadSpool does (one span per frame round
// trip) and then replay the same inputs in-process through Session::OnFrame,
// ArchiveSink::Persist, the io primitives and ArchiveStore. Spans stay in
// memory and are written out (JSON lines) when the command ends.
//
// Every command prints one JSON document on stdout; errors go to stderr and
// exit 1.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "client/spool.h"
#include "client/uploader.h"
#include "common/io.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "core/archive_store.h"
#include "core/codec.h"
#include "core/encoder.h"
#include "core/fleet_encoder.h"
#include "core/fleet_manifest.h"
#include "core/lookup_table.h"
#include "data/generator.h"
#include "data/redd.h"
#include "net/archive_sink.h"
#include "net/query_client.h"
#include "net/session.h"
#include "net/wire.h"

namespace smeter::perfbench {
namespace {

namespace fs = std::filesystem;

// --- small utilities --------------------------------------------------------

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntilNs(int64_t deadline) {
  const int64_t now = NowNs();
  if (deadline > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline - now));
  }
}

[[noreturn]] void Die(const std::string& message) {
  std::cerr << "perfbench_tool: " << message << "\n";
  std::exit(1);
}

template <typename T>
T Check(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result.value());
}

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) Die("unexpected argument " + key);
      values_[key.substr(2)] = argv[i + 1];
    }
  }
  std::string Str(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) Die("missing --" + key);
    return it->second;
  }
  int64_t Int(const std::string& key) const { return std::stoll(Str(key)); }
  int64_t Int(const std::string& key, int64_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stoll(it->second);
  }
  double Double(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }

 private:
  std::map<std::string, std::string> values_;
};

// Nearest-rank percentile of `values` (copied, so callers keep order).
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

// Minimal JSON object writer: numbers, strings and number arrays.
class Json {
 public:
  Json& Num(const std::string& key, double value) {
    Key(key);
    std::ostringstream out;
    out.precision(17);
    out << (std::isfinite(value) ? value : 0.0);
    body_ += out.str();
    return *this;
  }
  Json& Str(const std::string& key, const std::string& value) {
    Key(key);
    body_ += "\"" + value + "\"";
    return *this;
  }
  Json& Raw(const std::string& key, const std::string& json) {
    Key(key);
    body_ += json;
    return *this;
  }
  Json& Array(const std::string& key, const std::vector<double>& values) {
    Key(key);
    body_ += "[";
    char buffer[32];
    for (size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buffer, sizeof(buffer), "%s%.6f", i ? "," : "",
                    values[i]);
      body_ += buffer;
    }
    body_ += "]";
    return *this;
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":";
  }
  std::string body_;
};

// --- tracing ----------------------------------------------------------------
//
// One span per call the benchmark makes into a layer's public function:
// name, start, end, parent span and operation id. Spans live in memory
// until Write(); the summary folds them per name (count, total, p50, p99
// and self time, i.e. duration minus the union of its children).

class Trace {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;
    int64_t op = 0;
  };

  int64_t Begin(const std::string& name, int64_t parent, int64_t op,
                int64_t start_ns = 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start_ns != 0 ? start_ns : NowNs(), 0, parent, op});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void End(int64_t id) {
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }

  // Writes every span as one JSON line.
  void Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_us\":" << s.start_ns / 1000
          << ",\"end_us\":" << s.end_ns / 1000 << ",\"parent\":" << s.parent
          << ",\"op\":" << s.op << "}\n";
    }
  }

  // Per-name summary: {"name": {"count","total_ms","p50_ms","p99_ms",
  // "self_ms"}}, plus the summed duration and self time of the operation
  // roots (spans named "op.*", one per benchmark operation): their self
  // time is the unattributed remainder of the blocking path.
  std::string Summary() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        children[static_cast<size_t>(s.parent)].push_back(
            {s.start_ns, s.end_ns});
      }
    }
    std::map<std::string, std::vector<double>> durations;
    std::map<std::string, double> self_ms;
    double root_ms = 0, root_self_ms = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double duration = (s.end_ns - s.start_ns) / 1e6;
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      int64_t covered = 0, cursor = s.start_ns;
      for (const auto& [begin, end] : kids) {
        const int64_t from = std::max(begin, cursor);
        const int64_t to = std::min(end, s.end_ns);
        if (to > from) {
          covered += to - from;
          cursor = to;
        }
      }
      const double self = duration - covered / 1e6;
      durations[s.name].push_back(duration);
      self_ms[s.name] += self;
      if (s.parent < 0 && s.name.rfind("op.", 0) == 0) {
        root_ms += duration;
        root_self_ms += self;
      }
    }
    Json names;
    for (const auto& [name, values] : durations) {
      names.Raw(name, Json()
                          .Num("count", static_cast<double>(values.size()))
                          .Num("total_ms", Sum(values))
                          .Num("p50_ms", Percentile(values, 0.5))
                          .Num("p99_ms", Percentile(values, 0.99))
                          .Num("self_ms", self_ms[name])
                          .Done());
    }
    return Json()
        .Raw("spans", names.Done())
        .Num("root_ms", root_ms)
        .Num("root_self_ms", root_self_ms)
        .Done();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// RAII span; a null trace makes it free.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const std::string& name, int64_t parent = -1,
             int64_t op = 0)
      : trace_(trace), id_(trace ? trace->Begin(name, parent, op) : -1) {}
  ~ScopedSpan() {
    if (trace_) trace_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Trace* trace_;
  int64_t id_;
};

// --- spools -----------------------------------------------------------------

constexpr int64_t kWindowSeconds = 900;
constexpr int64_t kSamplePeriod = 60;
constexpr size_t kBatchSymbols = 512;
constexpr int64_t kBacklogDays = 30;  // a backlog meter's upload
constexpr size_t kPrepThreads = 4;
constexpr size_t kUploadWorkers = 4;  // closed-loop uploads, one per core
constexpr size_t kReplayMeters = 400;  // replayed server-side when traced

// Writes one sealed spool for a simulated meter, the way the client SDK's
// store-and-forward mode does: per-meter table learned from the first day,
// gap-aware encode at 15-minute windows, 512-symbol batches, SEAL.
void PrepareSpool(const std::string& dir, const std::string& name,
                  size_t house, const data::GeneratorOptions& generator) {
  TimeSeries trace =
      Check(data::GenerateHouseSeries(house, generator), "generate " + name);
  if (trace.empty()) Die("empty trace for " + name);
  TimeSeries history = trace.Slice(
      {trace.front().timestamp, trace.front().timestamp + kSecondsPerDay});
  LookupTable table =
      Check(LookupTable::Build(history.Values(), LookupTableOptions{}),
            "table " + name);
  PipelineOptions pipeline;
  pipeline.window_seconds = kWindowSeconds;
  pipeline.window.sample_period_seconds = kSamplePeriod;
  QualityEncoding encoded =
      Check(EncodePipelineWithGaps(trace, table, pipeline), "encode " + name);

  client::SpoolHeader header;
  header.meter_id = name;
  header.level = static_cast<uint8_t>(encoded.symbols.level());
  header.step_seconds = kWindowSeconds;
  header.table_blob = table.Serialize();
  client::Spool spool = Check(
      client::Spool::Create(dir + "/" + name + client::kSpoolSuffix, header),
      "spool " + name);
  const auto& samples = encoded.symbols.samples();
  for (size_t begin = 0; begin < samples.size(); begin += kBatchSymbols) {
    const size_t end = std::min(begin + kBatchSymbols, samples.size());
    client::SpoolBatch batch;
    batch.seq = spool.next_seq();
    batch.start_timestamp = samples[begin].timestamp;
    for (size_t i = begin; i < end; ++i) {
      batch.symbols.push_back(samples[i].symbol.is_gap()
                                  ? net::kWireGapSymbol
                                  : static_cast<uint16_t>(
                                        samples[i].symbol.index()));
    }
    Check(spool.AppendBatch(batch), "append " + name);
  }
  client::SpoolSeal seal;
  seal.windows_valid = encoded.quality.windows_valid;
  seal.windows_partial = encoded.quality.windows_partial;
  seal.windows_gap = encoded.quality.windows_gap;
  Check(spool.Seal(seal), "seal " + name);
}

// prep --dir D --seed S --prefix P --meters N --days D [--backlog-meters M]
//      [--start-day S]
int CmdPrep(const Args& args) {
  const std::string dir = args.Str("dir");
  const std::string prefix = args.Str("prefix");
  const int64_t meters = args.Int("meters", 0);
  const int64_t backlog = args.Int("backlog-meters", 0);
  fs::create_directories(dir);

  data::GeneratorOptions base;
  base.num_houses = static_cast<size_t>(meters + backlog);
  base.start_timestamp = args.Int("start-day", 0) * kSecondsPerDay;
  base.sample_period_seconds = kSamplePeriod;
  base.seed = static_cast<uint64_t>(args.Int("seed", 1));
  base.outages_per_day = 0.3;
  base.sparse_house = static_cast<size_t>(-1);
  data::GeneratorOptions regular = base;
  regular.duration_seconds = args.Int("days", 1) * kSecondsPerDay;
  data::GeneratorOptions longer = base;
  longer.duration_seconds = kBacklogDays * kSecondsPerDay;

  const int64_t total = meters + backlog;
  // Backlog meters are spread evenly through the name order, so every
  // worker of a closed-loop drain meets them at the same rate.
  const int64_t every = backlog > 0 ? std::max<int64_t>(1, total / backlog) : 0;
  std::atomic<int64_t> next{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kPrepThreads; ++t) {
    workers.emplace_back([&] {
      for (int64_t i = next++; i < total; i = next++) {
        char name[64];
        std::snprintf(name, sizeof(name), "%s%06lld", prefix.c_str(),
                      static_cast<long long>(i));
        const bool is_backlog =
            every > 0 && i % every == every - 1 && i / every < backlog;
        PrepareSpool(dir, name, static_cast<size_t>(i),
                     is_backlog ? longer : regular);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  std::cout << Json().Num("spools", static_cast<double>(total)).Done() << "\n";
  return 0;
}

// A spool read back, with its series expanded to (timestamp, symbol).
struct MeterSeries {
  std::string name;
  std::string path;
  client::SpoolContents spool;
  std::vector<int64_t> timestamps;
  std::vector<uint16_t> symbols;  // kWireGapSymbol for GAP
  int level = 1;
};

MeterSeries Expand(const std::string& path, client::SpoolContents spool) {
  MeterSeries meter;
  meter.name = spool.header.meter_id;
  meter.path = path;
  meter.level = spool.header.level;
  for (const client::SpoolBatch& batch : spool.batches) {
    for (size_t i = 0; i < batch.symbols.size(); ++i) {
      meter.timestamps.push_back(batch.start_timestamp +
                                 static_cast<int64_t>(i) *
                                     spool.header.step_seconds);
      meter.symbols.push_back(batch.symbols[i]);
    }
  }
  meter.spool = std::move(spool);
  return meter;
}

std::vector<std::string> SpoolPaths(const std::string& dir) {
  std::vector<std::string> paths;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 6 && name.substr(name.size() - 6) == ".spool") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

// Reads every spool under `dir`; with a trace, one span per ReadSpool.
std::vector<MeterSeries> LoadSpools(const std::string& dir,
                                    Trace* trace = nullptr) {
  std::vector<MeterSeries> out;
  for (const std::string& path : SpoolPaths(dir)) {
    Result<client::SpoolContents> spool = [&] {
      ScopedSpan span(trace, "client.read_spool");
      return client::ReadSpool(path);
    }();
    out.push_back(Expand(path, Check(std::move(spool), path)));
  }
  return out;
}

SymbolicSeries ToSeries(const MeterSeries& meter) {
  std::vector<SymbolicSample> samples;
  samples.reserve(meter.symbols.size());
  for (size_t i = 0; i < meter.symbols.size(); ++i) {
    samples.push_back(
        {meter.timestamps[i],
         meter.symbols[i] == net::kWireGapSymbol
             ? Symbol::Gap(meter.level)
             : Symbol::FromValidated(meter.level, meter.symbols[i])});
  }
  return Check(SymbolicSeries::FromSamples(meter.level, std::move(samples)),
               "series " + meter.name);
}

// The wire conversation client::UploadSpool replays, as frames.
std::vector<net::Frame> ConversationFrames(const client::SpoolContents& s) {
  std::vector<net::Frame> frames;
  net::HelloPayload hello;
  hello.meter_id = s.header.meter_id;
  frames.push_back(net::MakeHello(hello));
  net::TableAnnouncePayload announce;
  announce.table_version = s.header.table_version;
  announce.table_blob = s.header.table_blob;
  frames.push_back(net::MakeTableAnnounce(announce));
  for (const client::SpoolBatch& spooled : s.batches) {
    net::SymbolBatchPayload batch;
    batch.seq = spooled.seq;
    batch.start_timestamp = spooled.start_timestamp;
    batch.step_seconds = s.header.step_seconds;
    batch.level = s.header.level;
    batch.symbols = spooled.symbols;
    frames.push_back(net::MakeSymbolBatch(batch));
  }
  net::GoodbyePayload goodbye;
  goodbye.windows_valid = s.seal.windows_valid;
  goodbye.windows_partial = s.seal.windows_partial;
  goodbye.windows_gap = s.seal.windows_gap;
  frames.push_back(net::MakeGoodbye(goodbye));
  return frames;
}

// --- framed uploader (traced runs) -----------------------------------------

class Socket {
 public:
  ~Socket() {
    if (fd_ >= 0) ::close(fd_);
  }
  Status Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return InternalError("socket failed");
    const int enable = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return InternalError(std::string("connect: ") + std::strerror(errno));
    }
    return Status::Ok();
  }
  Result<net::Frame> RoundTrip(const net::Frame& frame) {
    const std::string bytes = net::EncodeFrame(frame);
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = ::write(fd_, bytes.data() + sent, bytes.size() - sent);
      if (n > 0) {
        sent += static_cast<size_t>(n);
      } else if (errno != EINTR) {
        return InternalError(std::string("write: ") + std::strerror(errno));
      }
    }
    for (;;) {
      net::DecodeResult decoded = net::DecodeFrame(in_);
      if (decoded.outcome == net::DecodeResult::Outcome::kFrame) {
        in_.erase(0, decoded.consumed);
        return std::move(decoded.frame);
      }
      if (decoded.outcome == net::DecodeResult::Outcome::kError) {
        return decoded.error;
      }
      char chunk[16 * 1024];
      ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n > 0) {
        in_.append(chunk, static_cast<size_t>(n));
      } else if (n == 0) {
        return InternalError("server closed the connection");
      } else if (errno != EINTR) {
        return InternalError(std::string("read: ") + std::strerror(errno));
      }
    }
  }

 private:
  int fd_ = -1;
  std::string in_;
};

// Sends the same frames UploadSpool does, one span per round trip, then
// appends DONE like the SDK. Returns the GOODBYE round trip in ms, or an
// error (any non-kOk ack or a THROTTLE).
Result<double> FramedUpload(const MeterSeries& meter, uint16_t port,
                            Trace* trace, int64_t parent, int64_t op) {
  Socket socket;
  {
    ScopedSpan span(trace, "net.connect", parent, op);
    SMETER_RETURN_IF_ERROR(socket.Connect(port));
  }
  std::vector<net::Frame> frames = ConversationFrames(meter.spool);
  double goodbye_ms = 0;
  for (size_t i = 0; i < frames.size(); ++i) {
    const char* name = i == 0                   ? "net.hello"
                       : i == 1                 ? "net.table"
                       : i + 1 == frames.size() ? "net.goodbye"
                                                : "net.batch";
    const int64_t start = NowNs();
    Result<net::Frame> reply = [&] {
      ScopedSpan span(trace, name, parent, op);
      return socket.RoundTrip(frames[i]);
    }();
    if (!reply.ok()) return reply.status();
    if (reply->type == net::FrameType::kThrottle) {
      return FailedPreconditionError("throttled");
    }
    if (reply->type == net::FrameType::kBatchAck) {
      Result<net::BatchAckPayload> ack = net::ParseBatchAck(*reply);
      if (!ack.ok() || ack->status != net::WireStatus::kOk) {
        return InternalError("batch refused");
      }
    } else {
      Result<net::AckPayload> ack = net::ParseAck(*reply);
      if (!ack.ok() || ack->status != net::WireStatus::kOk) {
        return InternalError(std::string("refused ") + name);
      }
    }
    if (i + 1 == frames.size()) goodbye_ms = (NowNs() - start) / 1e6;
  }
  ScopedSpan span(trace, "client.mark_done", parent, op);
  client::Spool spool =
      Check(client::Spool::Resume(meter.path), "resume " + meter.name);
  SMETER_RETURN_IF_ERROR(spool.MarkDone());
  return goodbye_ms;
}

// --- server-side replays (traced runs) -------------------------------------
//
// The same inputs, in-process: Session::OnFrame per frame, ArchiveSink::
// Persist into a scratch archive, and the io primitives Persist is built
// from. Returns per-meter persist times (ms) keyed by meter name.
std::map<std::string, double> ReplayServerSide(
    const std::vector<const MeterSeries*>& meters, const std::string& scratch,
    Trace* trace) {
  fs::remove_all(scratch);
  fs::create_directories(scratch + "/io");
  std::unique_ptr<net::ArchiveSink> sink = Check(
      net::ArchiveSink::Open(scratch + "/sink", /*resume=*/false, 1), "sink");
  const std::string log_path = scratch + "/io/append.log";
  Check(io::AtomicWriteFile(log_path, io::BuildAppendLog({})), "log");
  io::AppendLogWriter log =
      Check(io::AppendLogWriter::OpenForAppend(log_path), "log open");
  std::map<std::string, double> persist_ms;
  for (const MeterSeries* meter : meters) {
    const int64_t root = trace->Begin("replay.meter", -1, 0);
    std::vector<net::Frame> frames = ConversationFrames(meter->spool);
    net::Session session{net::SessionOptions{}};
    ScopedThreadRole role(session.writer_role());
    std::vector<net::Frame> replies;
    for (const net::Frame& frame : frames) {
      ScopedSpan span(trace, "net.session_frame", root);
      session.OnFrame(frame, &replies);
    }
    if (session.state() != net::Session::State::kComplete) {
      Die("session replay did not complete for " + meter->name);
    }
    SymbolicSeries series = Check(session.TakeSeries(), "take series");
    EncodeQuality quality;
    quality.windows_valid = meter->spool.seal.windows_valid;
    quality.windows_partial = meter->spool.seal.windows_partial;
    quality.windows_gap = meter->spool.seal.windows_gap;
    const int64_t start = NowNs();
    {
      ScopedSpan span(trace, "sink.persist", root);
      Check(sink->Persist(meter->name, meter->spool.header.table_blob, series,
                          quality),
            "persist " + meter->name);
    }
    persist_ms[meter->name] = (NowNs() - start) / 1e6;
    std::string blob =
        Check(PackSymbolicSeriesFramed(series), "pack " + meter->name);
    {
      ScopedSpan span(trace, "io.atomic_write", root);
      Check(io::AtomicWriteFile(scratch + "/io/" + meter->name + ".table",
                                meter->spool.header.table_blob),
            "write table");
    }
    {
      ScopedSpan span(trace, "io.atomic_write", root);
      Check(io::AtomicWriteFile(scratch + "/io/" + meter->name + ".symbols",
                                blob),
            "write symbols");
    }
    {
      ScopedSpan span(trace, "io.append", root);
      Check(log.Append("{\"name\":\"" + meter->name + "\"}"), "append");
    }
    trace->End(root);
  }
  Check(sink->Finalize(), "finalize");
  return persist_ms;
}

uint64_t TreeBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

// Replays up to kReplayMeters meters that went through the framed uploader
// (goodbye_ms[i] >= 0) server-side, and pairs each replayed persist with
// that meter's GOODBYE round trip: the rest is time the session waited
// behind other work on its shard.
void ReplayAndPair(const std::vector<MeterSeries>& meters,
                   const std::vector<double>& goodbye_ms,
                   const std::string& scratch, Trace* trace, Json* out) {
  std::vector<const MeterSeries*> replay;
  for (size_t i = 0; i < meters.size() && replay.size() < kReplayMeters;
       ++i) {
    if (goodbye_ms[i] >= 0) replay.push_back(&meters[i]);
  }
  std::map<std::string, double> persist =
      ReplayServerSide(replay, scratch, trace);
  std::vector<double> wait_ms;
  for (size_t i = 0; i < meters.size(); ++i) {
    auto it = persist.find(meters[i].name);
    if (it != persist.end()) {
      wait_ms.push_back(std::max(0.0, goodbye_ms[i] - it->second));
    }
  }
  out->Num("sink_wait_ms_p99", Percentile(wait_ms, 0.99))
      .Num("sink_bytes_per_meter",
           replay.empty() ? 0.0
                          : static_cast<double>(TreeBytes(scratch + "/sink")) /
                                static_cast<double>(replay.size()))
      .Num("replayed_meters", static_cast<double>(replay.size()));
}

// --- upload: closed loop ----------------------------------------------------

// upload --port P --spools D [--trace 1 --spans F --scratch S]
int CmdUpload(const Args& args) {
  const uint16_t port = static_cast<uint16_t>(args.Int("port", 0));
  const std::vector<std::string> paths = SpoolPaths(args.Str("spools"));
  const bool traced = args.Int("trace", 0) != 0;
  Trace trace;
  Trace* tracer = traced ? &trace : nullptr;

  client::UploaderOptions options;
  options.port = port;
  std::vector<double> latency_ms(paths.size(), 0);
  std::vector<double> goodbye_ms(paths.size(), -1);
  std::vector<char> ok(paths.size(), 0);
  std::vector<MeterSeries> loaded(traced ? paths.size() : 0);
  std::atomic<uint64_t> attempts{0}, throttled{0}, symbols{0};
  std::atomic<size_t> next{0};
  const int64_t begin = NowNs();
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kUploadWorkers; ++w) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < paths.size(); i = next++) {
        const int64_t start = NowNs();
        if (!traced) {
          client::UploadOutcome outcome = client::UploadSpool(options, paths[i]);
          latency_ms[i] = (NowNs() - start) / 1e6;
          ok[i] = outcome.delivered && !outcome.already_done;
          attempts += outcome.attempts;
          throttled += outcome.throttled;
          symbols += outcome.symbols_sent;
          if (!ok[i]) std::cerr << outcome.status.ToString() << "\n";
          continue;
        }
        // Traced: odd meters go through the SDK (one span), even meters
        // through the framed uploader (one span per frame round trip).
        const int64_t root =
            trace.Begin("op.upload_meter", -1, static_cast<int64_t>(i));
        {
          ScopedSpan span(tracer, "client.read_spool", root,
                          static_cast<int64_t>(i));
          loaded[i] = Expand(paths[i],
                             Check(client::ReadSpool(paths[i]), paths[i]));
        }
        symbols += loaded[i].symbols.size();
        if (i % 2 == 1) {
          ScopedSpan span(tracer, "client.upload", root,
                          static_cast<int64_t>(i));
          client::UploadOutcome outcome = client::UploadSpool(options, paths[i]);
          ok[i] = outcome.delivered && !outcome.already_done;
          attempts += outcome.attempts;
          throttled += outcome.throttled;
        } else {
          Result<double> rtt = FramedUpload(loaded[i], port, tracer, root,
                                            static_cast<int64_t>(i));
          ok[i] = rtt.ok();
          if (rtt.ok()) goodbye_ms[i] = *rtt;
          attempts += 1;
        }
        trace.End(root);
        latency_ms[i] = (NowNs() - start) / 1e6;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double wall_s = (NowNs() - begin) / 1e9;

  size_t delivered = 0;
  for (char c : ok) delivered += c ? 1 : 0;
  Json out;
  out.Num("wall_s", wall_s)
      .Num("meters", static_cast<double>(paths.size()))
      .Num("delivered", static_cast<double>(delivered))
      .Num("attempts", static_cast<double>(attempts.load()))
      .Num("throttled", static_cast<double>(throttled.load()))
      .Num("symbols", static_cast<double>(symbols.load()))
      .Array("latency_ms", latency_ms);
  if (traced) {
    ReplayAndPair(loaded, goodbye_ms, args.Str("scratch"), &trace, &out);
    out.Raw("trace", trace.Summary());
    trace.Write(args.Str("spans"));
  }
  std::cout << out.Done() << "\n";
  return 0;
}

// --- verify-archive ---------------------------------------------------------

// verify-archive --archive A --spools D: every spool marked DONE must have
// a .symbols in the archive that unpacks to exactly the spooled series.
int CmdVerifyArchive(const Args& args) {
  const std::string archive = args.Str("archive");
  size_t checked = 0, mismatched = 0, symbols = 0;
  for (const MeterSeries& meter : LoadSpools(args.Str("spools"))) {
    if (!meter.spool.done) continue;
    ++checked;
    Result<std::string> blob =
        io::ReadFileToString(archive + "/" + meter.name + ".symbols");
    Result<SymbolicSeries> stored =
        blob.ok() ? UnpackSymbolicSeries(*blob) : Result<SymbolicSeries>(
                                                      blob.status());
    if (!stored.ok() || !(stored->samples() == ToSeries(meter).samples())) {
      ++mismatched;
      std::cerr << "archive mismatch: " << meter.name << "\n";
      continue;
    }
    symbols += stored->size();
  }
  std::cout << Json()
                   .Num("checked", static_cast<double>(checked))
                   .Num("mismatched", static_cast<double>(mismatched))
                   .Num("symbols", static_cast<double>(symbols))
                   .Done()
            << "\n";
  return 0;
}

// --- serve: open loop -------------------------------------------------------

enum OpType { kUpload = 0, kPoint = 1, kRange = 2, kAggregate = 3 };
const char* const kOpNames[] = {"upload", "point", "range", "aggregate"};

// Arrivals per second by OpType; the parent commit sustains them with the
// generator on time. New-meter uploads sit far below the closed loop's
// capacity: every upload grows current.log, which the next point lookup
// re-reads, and at 200/s queryd nears saturation by the end of a 10 s run,
// where the tail latencies then follow the host's CPU speed. Points outnumber
// uploads eight to one and queryd stays mostly idle, so the median point
// neither re-reads the log nor waits (at two to one, or with queryd ~40%
// busy, it sat between those modes), and a run holds enough points that
// meet an aggregate on queryd's single loop for their p99 to repeat.
constexpr double kRates[4] = {50, 400, 100, 20};
constexpr size_t kUploadThreads = 2;
constexpr size_t kQueryThreads = 2;
// The schedule starts with this warm-up: its ops run and are checked, but
// their latencies are not recorded (cold caches, first connections).
constexpr double kWarmupSeconds = 1.0;
// An op that starts this late, or is still unsent this long before the
// stop, means the generator fell behind: the run is no longer open-loop.
constexpr int64_t kLateLimitMs = 100;

struct Op {
  int64_t due_ns = 0;  // relative to the run start
  OpType type = kPoint;
  size_t target = 0;   // stored meter, live meter, or window index
  int level = 0;
  bool live_point = false;  // point on an already uploaded live meter
};

struct AggregateWindow {
  TimeRange range;
  int level = 2;
};

struct AggregateExpect {
  uint64_t meters = 0, windows = 0, gaps = 0;
  uint32_t rollup = 0, scanned = 0;
  std::vector<uint64_t> histogram;
};

// Reference answers computed from the run's own inputs (the spools).
class Reference {
 public:
  Reference(const std::vector<MeterSeries>* stored, int64_t partition_seconds)
      : stored_(stored), partition_seconds_(partition_seconds) {
    for (const MeterSeries& meter : *stored_) {
      for (int64_t ts : meter.timestamps) {
        partitions_.insert(PartitionIdFor(ts, partition_seconds_));
      }
    }
  }

  // [first, end) of the slice of `meter` inside `range`.
  static std::pair<size_t, size_t> Bounds(const MeterSeries& meter,
                                          TimeRange range) {
    auto first = std::lower_bound(meter.timestamps.begin(),
                                  meter.timestamps.end(), range.begin);
    auto last = std::lower_bound(first, meter.timestamps.end(), range.end);
    return {static_cast<size_t>(first - meter.timestamps.begin()),
            static_cast<size_t>(last - meter.timestamps.begin())};
  }

  static uint16_t AtLevel(uint16_t symbol, int native, int level) {
    if (symbol == net::kWireGapSymbol || level == 0 || level == native) {
      return symbol;
    }
    return static_cast<uint16_t>(symbol >> (native - level));
  }

  const AggregateExpect& Aggregate(const AggregateWindow& window) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto key = std::make_pair(window.range.begin, window.range.end);
    auto it = aggregates_.find(key);
    if (it != aggregates_.end()) return it->second;
    AggregateExpect expect;
    expect.histogram.assign(size_t{1} << window.level, 0);
    for (const MeterSeries& meter : *stored_) {
      auto [first, last] = Bounds(meter, window.range);
      if (first == last) continue;
      ++expect.meters;
      for (size_t i = first; i < last; ++i) {
        ++expect.windows;
        if (meter.symbols[i] == net::kWireGapSymbol) {
          ++expect.gaps;
        } else {
          ++expect.histogram[AtLevel(meter.symbols[i], meter.level,
                                     window.level)];
        }
      }
    }
    for (int64_t id : partitions_) {
      const int64_t start = id * partition_seconds_;
      const int64_t end = start + partition_seconds_;
      if (end <= window.range.begin || start >= window.range.end) continue;
      if (start >= window.range.begin && end <= window.range.end) {
        ++expect.rollup;
      } else {
        ++expect.scanned;
      }
    }
    return aggregates_.emplace(key, std::move(expect)).first->second;
  }

 private:
  const std::vector<MeterSeries>* stored_;
  int64_t partition_seconds_;
  std::set<int64_t> partitions_;
  std::mutex mutex_;
  std::map<std::pair<int64_t, int64_t>, AggregateExpect> aggregates_;
};

bool PointMatches(const net::PointResultPayload& got, const MeterSeries& m) {
  return got.status == net::WireStatus::kOk &&
         got.timestamp == m.timestamps.back() && got.level == m.level &&
         got.symbol == m.symbols.back();
}

bool RangeMatches(const net::RangeResultPayload& got, const MeterSeries& m,
                  TimeRange range, int level) {
  auto [first, last] = Reference::Bounds(m, range);
  if (got.status != net::WireStatus::kOk || first == last) return false;
  if (got.start_timestamp != m.timestamps[first] ||
      got.step_seconds != kWindowSeconds || got.truncated != 0 ||
      got.level != (level == 0 ? m.level : level) ||
      got.symbols.size() != last - first) {
    return false;
  }
  for (size_t i = first; i < last; ++i) {
    if (got.symbols[i - first] !=
        Reference::AtLevel(m.symbols[i], m.level, level)) {
      return false;
    }
  }
  return true;
}

bool AggregateMatches(const net::AggregateResultPayload& got,
                      const AggregateExpect& expect, int level) {
  return got.status == net::WireStatus::kOk && got.level == level &&
         got.meters == expect.meters && got.meters_coarser == 0 &&
         got.windows == expect.windows && got.gaps == expect.gaps &&
         got.rollup_partitions == expect.rollup &&
         got.scanned_partitions == expect.scanned &&
         got.histogram == expect.histogram;
}

// Zipf(1) ranks over `n` items, shuffled so popular meters are spread
// through the name order.
class Zipf {
 public:
  Zipf(size_t n, std::mt19937_64* rng) : order_(n) {
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      cdf_.push_back(total);
      order_[i] = i;
    }
    for (double& c : cdf_) c /= total;
    std::shuffle(order_.begin(), order_.end(), *rng);
  }
  size_t Draw(std::mt19937_64* rng) const {
    const double u = std::uniform_real_distribution<double>(0, 1)(*rng);
    size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return order_[std::min(rank, order_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<size_t> order_;
};

// serve --ingest-port P --query-port Q --stored D --live L --seconds T
//       --seed S [--trace 1 --spans F --scratch S --store DIR --archive DIR]
int CmdServe(const Args& args) {
  const uint16_t ingest_port = static_cast<uint16_t>(args.Int("ingest-port", 0));
  const uint16_t query_port = static_cast<uint16_t>(args.Int("query-port", 0));
  const double seconds = args.Double("seconds", 10);
  const bool traced = args.Int("trace", 0) != 0;
  Trace trace;
  Trace* tracer = traced ? &trace : nullptr;

  const std::vector<MeterSeries> stored = LoadSpools(args.Str("stored"));
  const std::vector<MeterSeries> live = LoadSpools(args.Str("live"), tracer);
  if (stored.empty()) Die("no stored meters");
  Reference reference(&stored, kSecondsPerDay);
  int64_t first_ts = stored.front().timestamps.front();
  int64_t end_ts = 0;
  for (const MeterSeries& m : stored) {
    first_ts = std::min(first_ts, m.timestamps.front());
    end_ts = std::max(end_ts, m.timestamps.back() + kWindowSeconds);
  }
  const int64_t first_day = first_ts / kSecondsPerDay;
  const int64_t last_day = end_ts / kSecondsPerDay;  // exclusive-ish
  if (last_day - first_day < 9) Die("stored fleet shorter than 9 days");

  // The schedule: each type at a fixed rate, the k-th arrival at a seeded
  // uniform point of [k, k+1) / rate, so the offsets between types (how a
  // point meets an aggregate on queryd) vary op by op rather than once per
  // seed; targets drawn from the seed.
  std::mt19937_64 rng(static_cast<uint64_t>(args.Int("seed", 1)) * 7919 + 1);
  Zipf zipf(stored.size(), &rng);
  std::vector<AggregateWindow> windows;
  for (int64_t day = first_day + 1; day + 7 < last_day; ++day) {
    windows.push_back({{day * kSecondsPerDay, (day + 7) * kSecondsPerDay}, 2});
    windows.push_back({{day * kSecondsPerDay + 6 * kSecondsPerHour,
                        (day + 7) * kSecondsPerDay + 6 * kSecondsPerHour},
                       2});
  }
  const TimeRange last_week{end_ts - 7 * kSecondsPerDay, end_ts};
  std::vector<Op> uploads, queries;
  const double total_s = kWarmupSeconds + seconds;
  std::uniform_real_distribution<double> unit(0, 1);
  for (int type = 0; type < 4; ++type) {
    const size_t count = static_cast<size_t>(total_s * kRates[type]);
    for (size_t k = 0; k < count; ++k) {
      Op op;
      op.type = static_cast<OpType>(type);
      op.due_ns = static_cast<int64_t>((k + unit(rng)) / kRates[type] * 1e9);
      switch (op.type) {
        case kUpload:
          if (k >= live.size()) Die("not enough live spools for the rate");
          op.target = k;
          break;
        case kPoint: {
          // One point in five reads a live meter whose upload was due at
          // least a second earlier; its answer is checked only if the
          // upload was acked before the query went out.
          const double upload_due_s = op.due_ns / 1e9 - 1.0;
          const size_t uploaded =
              upload_due_s > 0
                  ? static_cast<size_t>(upload_due_s * kRates[kUpload])
                  : 0;
          if (uploaded > 0 && rng() % 5 == 0) {
            op.live_point = true;
            op.target = rng() % std::min(uploaded, live.size());
          } else {
            op.target = zipf.Draw(&rng);
          }
          break;
        }
        case kRange:
          op.target = zipf.Draw(&rng);
          op.level = k % 2 == 0 ? 0 : 2;
          break;
        case kAggregate:
          // Alternate partition-aligned and ragged windows.
          op.target = (rng() % (windows.size() / 2)) * 2 + k % 2;
          break;
      }
      (type == kUpload ? uploads : queries).push_back(op);
    }
  }
  auto by_due = [](const Op& a, const Op& b) { return a.due_ns < b.due_ns; };
  std::sort(queries.begin(), queries.end(), by_due);

  std::vector<std::atomic<char>> acked(live.size());
  std::vector<double> goodbye_ms(live.size(), -1);  // framed uploads only
  for (auto& flag : acked) flag = 0;
  std::mutex results_mutex;
  std::vector<double> latency[4], late_ms, replay_calls[4];
  std::vector<double> call_ms[4];
  uint64_t done[4] = {0, 0, 0, 0}, failed[4] = {0, 0, 0, 0};
  uint64_t rollup_partitions = 0, scanned_partitions = 0;
  uint64_t live_points_checked = 0;
  std::atomic<uint64_t> attempts{0}, throttled{0};
  std::atomic<uint64_t> backlog{0};
  std::vector<std::pair<size_t, int64_t>> executed;  // (query index, span)

  const int64_t start = NowNs() + 20'000'000;  // 20 ms to spin up
  const int64_t stop = start + static_cast<int64_t>(total_s * 1e9);
  const int64_t warmup_ns = static_cast<int64_t>(kWarmupSeconds * 1e9);
  const int64_t late_limit_ns = kLateLimitMs * 1'000'000;
  auto record = [&](const Op& op, int64_t began, bool ok, double call,
                    uint32_t rollups = 0, uint32_t scanned = 0) {
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(results_mutex);
    late_ms.push_back((began - (start + op.due_ns)) / 1e6);
    if (!ok) {
      ++failed[op.type];
      return;
    }
    ++done[op.type];
    if (op.due_ns >= warmup_ns) {
      latency[op.type].push_back((now - (start + op.due_ns)) / 1e6);
    }
    call_ms[op.type].push_back(call);
    rollup_partitions += rollups;
    scanned_partitions += scanned;
  };

  // Uploads: UploadSpool (the framed uploader when traced), each meter on
  // its own connection like `smeter uplink`.
  std::atomic<size_t> next_upload{0};
  auto upload_worker = [&] {
    client::UploaderOptions options;
    options.port = ingest_port;
    for (size_t k = next_upload++; k < uploads.size(); k = next_upload++) {
      const Op& op = uploads[k];
      if (start + op.due_ns >= stop) break;
      SleepUntilNs(start + op.due_ns);
      if (NowNs() >= stop) {
        if (start + op.due_ns < stop - late_limit_ns) backlog += 1;
        continue;
      }
      const int64_t root =
          tracer ? trace.Begin("op.upload", -1, static_cast<int64_t>(k),
                               start + op.due_ns)
                 : -1;
      const int64_t began = NowNs();
      bool ok = false;
      if (tracer) {
        trace.End(trace.Begin("gen.wait", root, 0, start + op.due_ns));
      }
      if (tracer && k % 2 == 0) {
        // Traced: even uploads through the framed uploader (one span per
        // frame round trip), odd ones through the SDK (one span).
        Result<double> rtt = FramedUpload(live[op.target], ingest_port,
                                          tracer, root,
                                          static_cast<int64_t>(k));
        ok = rtt.ok();
        if (ok) goodbye_ms[op.target] = *rtt;
        ++attempts;
      } else {
        ScopedSpan span(tracer, "client.upload", root,
                        static_cast<int64_t>(k));
        client::UploadOutcome outcome =
            client::UploadSpool(options, live[op.target].path);
        ok = outcome.delivered && !outcome.already_done &&
             outcome.attempts == 1 && outcome.throttled == 0;
        attempts += outcome.attempts;
        throttled += outcome.throttled;
      }
      if (ok) acked[op.target] = 1;
      record(op, began, ok, (NowNs() - began) / 1e6);
      if (tracer) trace.End(root);
    }
  };
  std::vector<std::thread> upload_workers;
  for (size_t t = 0; t < kUploadThreads; ++t) {
    upload_workers.emplace_back(upload_worker);
  }

  std::atomic<size_t> next{0};
  std::vector<std::thread> query_workers;
  for (size_t t = 0; t < kQueryThreads; ++t) {
    query_workers.emplace_back([&] {
      net::QueryClientOptions options;
      options.port = query_port;
      options.timeout_ms = 10'000;
      std::unique_ptr<net::QueryClient> client;
      for (size_t k = next++; k < queries.size(); k = next++) {
        const Op& op = queries[k];
        if (start + op.due_ns >= stop) break;
        SleepUntilNs(start + op.due_ns);
        if (NowNs() >= stop) {
          if (start + op.due_ns < stop - late_limit_ns) backlog += 1;
          continue;
        }
        const int64_t root =
            tracer ? trace.Begin(std::string("op.") + kOpNames[op.type], -1,
                                 static_cast<int64_t>(k), start + op.due_ns)
                   : -1;
        const int64_t began = NowNs();
        if (tracer) trace.End(trace.Begin("gen.wait", root, 0, start + op.due_ns));
        if (!client) {
          Result<std::unique_ptr<net::QueryClient>> connected =
              net::QueryClient::Connect(options);
          if (!connected.ok()) {
            record(op, began, false, 0);
            if (tracer) trace.End(root);
            continue;
          }
          client = std::move(*connected);
        }
        bool ok = false;
        double call = 0;
        uint32_t rollups = 0, scanned = 0;
        const int64_t call_start = NowNs();
        const std::string span_name = std::string("query.") + kOpNames[op.type];
        if (op.type == kPoint) {
          const MeterSeries& meter =
              op.live_point ? live[op.target] : stored[op.target];
          const bool was_acked = op.live_point && acked[op.target];
          Result<net::PointResultPayload> got = [&] {
            ScopedSpan span(tracer, span_name, root, static_cast<int64_t>(k));
            return client->Point(meter.name);
          }();
          call = (NowNs() - call_start) / 1e6;
          if (!op.live_point || was_acked) {
            ok = got.ok() && PointMatches(*got, meter);
            if (op.live_point && ok) {
              std::lock_guard<std::mutex> lock(results_mutex);
              ++live_points_checked;
            }
          } else {
            ok = got.ok() && (got->status == net::WireStatus::kNotFound ||
                              PointMatches(*got, meter));
          }
        } else if (op.type == kRange) {
          const MeterSeries& meter = stored[op.target];
          Result<net::RangeResultPayload> got = [&] {
            ScopedSpan span(tracer, span_name, root, static_cast<int64_t>(k));
            return client->Range(meter.name, last_week, op.level,
                                 net::kMaxWireRangeSymbols);
          }();
          call = (NowNs() - call_start) / 1e6;
          ok = got.ok() && RangeMatches(*got, meter, last_week, op.level);
        } else {
          const AggregateWindow& window = windows[op.target];
          Result<net::AggregateResultPayload> got = [&] {
            ScopedSpan span(tracer, span_name, root, static_cast<int64_t>(k));
            return client->Aggregate(window.range, window.level);
          }();
          call = (NowNs() - call_start) / 1e6;
          ok = got.ok() && AggregateMatches(*got, reference.Aggregate(window),
                                            window.level);
          if (ok) {
            rollups = got->rollup_partitions;
            scanned = got->scanned_partitions;
          }
        }
        if (!ok) {
          std::cerr << "serve: " << kOpNames[op.type] << " #" << k
                    << " failed its check\n";
          client.reset();
        }
        record(op, began, ok, call, rollups, scanned);
        if (tracer) {
          trace.End(root);
          std::lock_guard<std::mutex> lock(results_mutex);
          executed.push_back({k, root});
        }
      }
    });
  }
  for (std::thread& worker : upload_workers) worker.join();
  for (std::thread& worker : query_workers) worker.join();
  const double wall_s = (NowNs() - start) / 1e9;

  Json out;
  out.Num("wall_s", wall_s)
      .Num("backlog_end", static_cast<double>(backlog.load()))
      .Num("late_limit_ms", static_cast<double>(kLateLimitMs))
      .Array("late_ms", late_ms)
      .Num("rollup_partitions", static_cast<double>(rollup_partitions))
      .Num("scanned_partitions", static_cast<double>(scanned_partitions))
      .Num("live_points_checked", static_cast<double>(live_points_checked))
      .Num("attempts", static_cast<double>(attempts.load()))
      .Num("throttled", static_cast<double>(throttled.load()));
  for (int type = 0; type < 4; ++type) {
    out.Num(std::string(kOpNames[type]) + "_done",
            static_cast<double>(done[type]))
        .Num(std::string(kOpNames[type]) + "_failed",
             static_cast<double>(failed[type]))
        .Num(std::string(kOpNames[type]) + "_scheduled",
             static_cast<double>(type == kUpload
                                     ? uploads.size()
                                     : std::count_if(
                                           queries.begin(), queries.end(),
                                           [&](const Op& op) {
                                             return op.type == type;
                                           })))
        .Array(std::string(kOpNames[type]) + "_ms", latency[type]);
  }
  size_t symbols_uploaded = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    if (acked[i]) symbols_uploaded += live[i].symbols.size();
  }
  out.Num("symbols_uploaded", static_cast<double>(symbols_uploaded));

  if (traced) {
    // Replay every executed query in-process on the same store, then the
    // uploaded meters server-side.
    std::unique_ptr<ArchiveStore> store = Check(
        ArchiveStore::Open(args.Str("store"),
                           ArchiveStoreOptions{args.Str("archive")}),
        "open store");
    std::sort(executed.begin(), executed.end());
    for (const auto& [k, root] : executed) {
      const Op& op = queries[k];
      const int64_t begin_ns = NowNs();
      if (op.type == kPoint) {
        const MeterSeries& meter =
            op.live_point ? live[op.target] : stored[op.target];
        ScopedSpan span(&trace, "store.latest", -1, static_cast<int64_t>(k));
        (void)store->Latest(meter.name);
      } else if (op.type == kRange) {
        ScopedSpan span(&trace, "store.scan", -1, static_cast<int64_t>(k));
        (void)store->Scan(stored[op.target].name, last_week, op.level,
                          net::kMaxWireRangeSymbols);
      } else {
        ScopedSpan span(&trace, "store.aggregate", -1,
                        static_cast<int64_t>(k));
        (void)store->Aggregate(windows[op.target].range,
                               windows[op.target].level);
      }
      replay_calls[op.type].push_back((NowNs() - begin_ns) / 1e6);
    }
    for (int type = kPoint; type <= kAggregate; ++type) {
      out.Num(std::string("serving_us_p50_") + kOpNames[type],
              1000.0 * (Percentile(call_ms[type], 0.5) -
                        Percentile(replay_calls[type], 0.5)));
    }
    out.Num("store_segments_read_replay",
            static_cast<double>(store->segments_read()));
    ReplayAndPair(live, goodbye_ms, args.Str("scratch"), &trace, &out);
    out.Raw("trace", trace.Summary());
    trace.Write(args.Str("spans"));
  }
  std::cout << out.Done() << "\n";
  return 0;
}

// --- offline pipeline -------------------------------------------------------

std::vector<std::string> HouseDirs(const std::string& fleet) {
  std::vector<std::string> dirs;
  for (int h = 1; fs::is_directory(fleet + "/house_" + std::to_string(h));
       ++h) {
    dirs.push_back(fleet + "/house_" + std::to_string(h));
  }
  if (dirs.empty()) Die("no house_<i> directories under " + fleet);
  return dirs;
}

FleetEncodeOptions OfflineOptions(int64_t history) {
  FleetEncodeOptions options;
  options.history_seconds = history;
  options.gap_aware = true;
  options.retry.max_retries = 0;
  return options;
}

// offline-check --fleet F --enc E --history H --threads T: re-encodes every
// household in-process and compares it with the CLI's .symbols.
int CmdOfflineCheck(const Args& args) {
  const std::vector<std::string> houses = HouseDirs(args.Str("fleet"));
  const std::string enc = args.Str("enc");
  const FleetEncodeOptions options = OfflineOptions(args.Int("history"));
  std::vector<TimeSeries> traces(houses.size());
  ThreadPool pool(static_cast<size_t>(args.Int("threads")));
  Check(pool.ParallelFor(0, houses.size(), 1,
                         [&](size_t begin, size_t end) -> Status {
                           for (size_t h = begin; h < end; ++h) {
                             Result<TimeSeries> trace =
                                 data::LoadReddHouseMains(houses[h]);
                             if (!trace.ok()) return trace.status();
                             traces[h] = std::move(*trace);
                           }
                           return Status::Ok();
                         }),
        "load fleet");
  std::vector<HouseholdEncoding> encoded =
      Check(EncodeFleet(traces, options, &pool), "encode fleet");
  size_t mismatched = 0, symbols = 0, rows = 0;
  for (size_t h = 0; h < houses.size(); ++h) {
    rows += traces[h].size();
    const std::string name = "house_" + std::to_string(h + 1);
    Result<std::string> blob =
        io::ReadFileToString(enc + "/" + name + ".symbols");
    Result<SymbolicSeries> stored =
        blob.ok() ? UnpackSymbolicSeries(*blob)
                  : Result<SymbolicSeries>(blob.status());
    if (!stored.ok() || !(stored->samples() == encoded[h].symbols.samples())) {
      ++mismatched;
      std::cerr << "offline mismatch: " << name << "\n";
      continue;
    }
    symbols += stored->size();
  }
  std::cout << Json()
                   .Num("households", static_cast<double>(houses.size()))
                   .Num("mismatched", static_cast<double>(mismatched))
                   .Num("symbols", static_cast<double>(symbols))
                   .Num("rows", static_cast<double>(rows))
                   .Done()
            << "\n";
  return 0;
}

// offline-trace --fleet F --out D --history H --threads T --trace 0|1
//               [--spans S]:
// encode-fleet + store-build in-process. With --trace 1, one span per layer
// call, then a serial replay of the per-household core calls; with
// --trace 0 the same pass runs with a null trace, as the untraced baseline
// of the tracing overhead.
int CmdOfflineTrace(const Args& args) {
  const std::vector<std::string> houses = HouseDirs(args.Str("fleet"));
  const std::string out_dir = args.Str("out");
  const size_t threads = static_cast<size_t>(args.Int("threads"));
  const FleetEncodeOptions options = OfflineOptions(args.Int("history"));
  fs::remove_all(out_dir);
  const std::string enc = out_dir + "/enc";
  fs::create_directories(enc);
  Trace trace;
  Trace* tracer = args.Int("trace", 0) != 0 ? &trace : nullptr;

  const int64_t pass_start = NowNs();
  std::vector<FleetInput> inputs;
  std::vector<HouseholdReport> reports;
  StoreBuildReport built;
  size_t rows = 0;
  double fleet_ms = 0;
  {
    ScopedSpan root(tracer, "op.offline_pass");
    for (size_t h = 0; h < houses.size(); ++h) {
      ScopedSpan span(tracer, "data.load", root.id(), static_cast<int64_t>(h));
      inputs.push_back({"house_" + std::to_string(h + 1),
                        data::LoadReddHouseMains(houses[h])});
      if (inputs.back().trace.ok()) rows += inputs.back().trace->size();
    }
    const std::string manifest_path = enc + "/fleet.manifest";
    Check(io::AtomicWriteFile(manifest_path, BuildManifestLog({})), "manifest");
    io::AppendLogWriter manifest =
        Check(io::AppendLogWriter::OpenForAppend(manifest_path), "manifest");
    std::mutex manifest_mutex;
    ThreadPool pool(threads);
    const int64_t fleet_start = NowNs();
    {
      ScopedSpan fleet_span(tracer, "core.fleet_encode", root.id());
      const int64_t parent = fleet_span.id();
      HouseholdSink sink = [&](size_t index, const HouseholdReport& report,
                               const HouseholdEncoding& encoding) -> Status {
        const int64_t op = static_cast<int64_t>(index);
        {
          ScopedSpan span(tracer, "io.atomic_write", parent, op);
          SMETER_RETURN_IF_ERROR(io::AtomicWriteFile(
              enc + "/" + report.name + ".table", encoding.table.Serialize()));
        }
        Result<std::string> blob = [&] {
          ScopedSpan span(tracer, "core.pack", parent, op);
          return PackSymbolicSeriesFramed(encoding.symbols);
        }();
        if (!blob.ok()) return blob.status();
        {
          ScopedSpan span(tracer, "io.atomic_write", parent, op);
          SMETER_RETURN_IF_ERROR(io::AtomicWriteFile(
              enc + "/" + report.name + ".symbols", *blob));
        }
        HouseholdReport done = report;
        done.outcome = HouseholdOutcome::kDegraded;
        std::lock_guard<std::mutex> lock(manifest_mutex);
        ScopedSpan span(tracer, "io.append", parent, op);
        return manifest.Append(ManifestRecord(done));
      };
      reports =
          Check(EncodeFleetTolerant(inputs, options, &pool, sink), "fleet");
    }
    fleet_ms = (NowNs() - fleet_start) / 1e6;
    Check(manifest.Close(), "manifest close");
    ScopedSpan span(tracer, "store.build", root.id());
    built = Check(BuildArchiveStore(enc, out_dir + "/store"), "store-build");
  }
  const double pass_ms = (NowNs() - pass_start) / 1e6;
  for (const HouseholdReport& report : reports) {
    if (report.outcome == HouseholdOutcome::kQuarantined) {
      Die(report.name + " quarantined: " + report.error.ToString());
    }
  }
  Json out;
  out.Num("pass_ms", pass_ms)
      .Num("rows", static_cast<double>(rows))
      .Num("segments_written", static_cast<double>(built.segments_written))
      .Num("segment_bytes", static_cast<double>(built.segment_bytes));
  if (tracer == nullptr) {
    std::cout << out.Done() << "\n";
    return 0;
  }

  // Serial replay of the per-household core calls EncodeFleetTolerant
  // makes, so each gets its own span (and the pool's busy share a base).
  double core_ms = 0;
  size_t encoded_samples = 0;
  for (size_t h = 0; h < inputs.size(); ++h) {
    const TimeSeries& series = *inputs[h].trace;
    const int64_t op = static_cast<int64_t>(h);
    const int64_t start = NowNs();
    TimeSeries training = series.Slice(
        {series.front().timestamp,
         series.front().timestamp + options.history_seconds});
    LookupTable table = [&] {
      ScopedSpan span(&trace, "core.table_build", -1, op);
      return Check(LookupTable::Build(training.Values(), options.table),
                   "table");
    }();
    QualityEncoding encoded = [&] {
      ScopedSpan span(&trace, "core.encode", -1, op);
      return Check(EncodePipelineWithGaps(series, table, options.pipeline),
                   "encode");
    }();
    {
      ScopedSpan span(&trace, "core.pack", -1, op);
      Check(PackSymbolicSeriesFramed(encoded.symbols), "pack");
    }
    core_ms += (NowNs() - start) / 1e6;
    encoded_samples += series.size();
  }
  out.Num("encode_samples", static_cast<double>(encoded_samples))
      .Num("pool_busy_share",
           fleet_ms > 0 ? core_ms / (fleet_ms * static_cast<double>(threads))
                        : 0.0)
      .Raw("trace", trace.Summary());
  std::cout << out.Done() << "\n";
  trace.Write(args.Str("spans"));
  return 0;
}

int CmdInfo() {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::cout << Json()
                   .Num("ndebug", ndebug ? 1 : 0)
                   .Str("compiler", __VERSION__)
                   .Num("upload_rate", kRates[kUpload])
                   .Num("warmup_s", kWarmupSeconds)
                   .Done()
            << "\n";
  return 0;
}

}  // namespace
}  // namespace smeter::perfbench

int main(int argc, char** argv) {
  using namespace smeter::perfbench;
  if (argc < 2) Die("usage: perfbench_tool <command> [--flag value]...");
  const std::string command = argv[1];
  const Args args(argc, argv);
  if (command == "prep") return CmdPrep(args);
  if (command == "upload") return CmdUpload(args);
  if (command == "serve") return CmdServe(args);
  if (command == "verify-archive") return CmdVerifyArchive(args);
  if (command == "offline-check") return CmdOfflineCheck(args);
  if (command == "offline-trace") return CmdOfflineTrace(args);
  if (command == "info") return CmdInfo();
  Die("unknown command " + command);
}
