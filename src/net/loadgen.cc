#include "net/loadgen.h"

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "core/encoder.h"
#include "core/lookup_table.h"
#include "data/cer.h"
#include "net/framed_client.h"
#include "net/wire.h"

namespace smeter::net {

uint64_t XorShift64(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  return x;
}

int64_t FullJitterBackoffMs(int attempt, const BackoffPolicy& policy,
                            uint64_t* rng_state) {
  if (attempt <= 1) return 0;
  const int64_t base = policy.base_ms < 1 ? 1 : policy.base_ms;
  const int64_t cap = policy.cap_ms < base ? base : policy.cap_ms;
  // base * 2^(attempt-2), saturating at the cap. The doubling must not be
  // allowed to run first and clamp after: with a cap near INT64_MAX the
  // multiply itself is signed overflow (UB) around attempt 63, so saturate
  // BEFORE doubling whenever another doubling could pass the cap.
  int64_t ceiling = base;
  for (int i = 2; i < attempt && ceiling < cap; ++i) {
    if (ceiling > cap / 2) {
      ceiling = cap;
      break;
    }
    ceiling *= 2;
  }
  if (ceiling > cap) ceiling = cap;
  if (*rng_state == 0) *rng_state = 0x9e3779b97f4a7c15ull;
  // The +1 (inclusive upper bound) happens in uint64 space: ceiling may
  // legitimately be INT64_MAX, where `ceiling + 1` as int64 is UB.
  return static_cast<int64_t>(XorShift64(rng_state) %
                              (static_cast<uint64_t>(ceiling) + 1));
}

uint64_t JitterSeed(const std::string& name) {
  uint64_t seed = 0xcbf29ce484222325ull;
  for (char ch : name) {
    seed = (seed ^ static_cast<unsigned char>(ch)) * 0x100000001b3ull;
  }
  return seed == 0 ? 0x9e3779b97f4a7c15ull : seed;
}

namespace {

// The sensor-side pipeline: the HouseholdEncoder encode-fleet runs per
// household, so shared inputs yield bit-identical tables and symbol
// streams on both paths.
Result<PreparedUpload> PrepareMeter(const std::string& name,
                                    const TimeSeries& trace,
                                    const FleetEncodeOptions& options) {
  Result<EncodedHousehold> encoded = EncodeHousehold(trace, options);
  if (!encoded.ok()) {
    return Status(encoded.status().code(),
                  name + ": " + encoded.status().message());
  }
  PreparedUpload prepared;
  prepared.name = name;
  prepared.table_blob = encoded->encoding.table.Serialize();
  prepared.quality = encoded->quality;
  prepared.symbols = std::move(encoded.value().encoding.symbols);
  if (prepared.symbols.empty()) {
    return FailedPreconditionError(name + ": trace encoded to no symbols");
  }
  return prepared;
}

struct SharedStats {
  std::atomic<uint64_t> frames_sent{0};
  std::atomic<uint64_t> symbols_sent{0};
  std::atomic<uint64_t> reconnects{0};
  std::atomic<uint64_t> batches_dropped{0};
  std::atomic<uint64_t> connections_opened{0};
  std::atomic<uint64_t> throttled{0};
  std::atomic<size_t> meters_ok{0};
  std::atomic<size_t> meters_failed{0};
};

// A THROTTLE frame in place of any awaited ack fails the attempt (the
// server closes the connection after pushing back) and records the
// server's retry_after_ms hint, which the retry loop adds to its next
// jittered backoff so the client never comes back sooner than asked.
Status CheckThrottle(const Frame& frame, const std::string& meter_name,
                     SharedStats* stats, uint32_t* retry_hint_ms) {
  if (frame.type != FrameType::kThrottle) return Status::Ok();
  stats->throttled.fetch_add(1, std::memory_order_relaxed);
  Result<ThrottlePayload> throttle = ParseThrottle(frame);
  if (!throttle.ok()) {
    return InternalError(meter_name + ": malformed THROTTLE: " +
                         throttle.status().message());
  }
  if (throttle->retry_after_ms > *retry_hint_ms) {
    *retry_hint_ms = throttle->retry_after_ms;
  }
  return InternalError(meter_name + ": throttled [" +
                       ThrottleScopeName(throttle->scope) + "] " +
                       throttle->message);
}

// One complete upload conversation over an already-connected client. Any
// error aborts the attempt; the caller decides whether to reconnect. The
// connection is left open after the GOODBYE_ACK, ready for the next
// meter's HELLO (the server resets the session to ExpectHello).
Status UploadConversation(const LoadgenOptions& options,
                          const PreparedUpload& meter, FramedClient* client_ptr,
                          SharedStats* stats, uint32_t* retry_hint_ms) {
  FramedClient& client = *client_ptr;
  HelloPayload hello;
  hello.protocol_version = kProtocolVersion;
  hello.meter_id = meter.name;
  hello.auth_token = options.auth_token;
  SMETER_RETURN_IF_ERROR(client.SendFrame(MakeHello(hello)));
  stats->frames_sent.fetch_add(1, std::memory_order_relaxed);
  Result<Frame> reply = client.RecvFrame();
  if (!reply.ok()) return reply.status();
  SMETER_RETURN_IF_ERROR(
      CheckThrottle(*reply, meter.name, stats, retry_hint_ms));
  SMETER_RETURN_IF_ERROR(ExpectOkAck(*reply, FrameType::kHelloAck));

  TableAnnouncePayload announce;
  announce.table_version = 1;
  announce.table_blob = meter.table_blob;
  SMETER_RETURN_IF_ERROR(client.SendFrame(MakeTableAnnounce(announce)));
  stats->frames_sent.fetch_add(1, std::memory_order_relaxed);
  reply = client.RecvFrame();
  if (!reply.ok()) return reply.status();
  SMETER_RETURN_IF_ERROR(
      CheckThrottle(*reply, meter.name, stats, retry_hint_ms));
  SMETER_RETURN_IF_ERROR(ExpectOkAck(*reply, FrameType::kTableAck));

  const auto& samples = meter.symbols.samples();
  const int64_t step =
      samples.size() >= 2
          ? samples[1].timestamp - samples[0].timestamp
          : options.encode.pipeline.window_seconds;
  const size_t batch_size =
      options.batch_symbols == 0 ? 512 : options.batch_symbols;
  uint64_t seq = 1;
  for (size_t begin = 0; begin < samples.size(); begin += batch_size) {
    // The dying-meter seam: drop the socket mid-stream, after the server
    // has already buffered part of this session.
    if (!fault::Check("loadgen.drop").ok()) {
      stats->batches_dropped.fetch_add(1, std::memory_order_relaxed);
      client.Abort();
      return InternalError(meter.name + ": injected mid-batch disconnect");
    }
    const size_t end = std::min(begin + batch_size, samples.size());
    SymbolBatchPayload batch;
    batch.seq = seq++;
    batch.start_timestamp = samples[begin].timestamp;
    batch.step_seconds = step;
    batch.level = meter.symbols.level();
    batch.symbols.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      batch.symbols.push_back(
          samples[i].symbol.is_gap()
              ? kWireGapSymbol
              : static_cast<uint16_t>(samples[i].symbol.index()));
    }
    SMETER_RETURN_IF_ERROR(client.SendFrame(MakeSymbolBatch(batch)));
    stats->frames_sent.fetch_add(1, std::memory_order_relaxed);
    stats->symbols_sent.fetch_add(end - begin, std::memory_order_relaxed);
    reply = client.RecvFrame();
    if (!reply.ok()) return reply.status();
    SMETER_RETURN_IF_ERROR(
        CheckThrottle(*reply, meter.name, stats, retry_hint_ms));
    Result<BatchAckPayload> ack = ParseBatchAck(*reply);
    if (!ack.ok()) return ack.status();
    if (ack->status != WireStatus::kOk) {
      return InternalError(std::string("batch refused: [") +
                           WireStatusName(ack->status) + "] " +
                           ack->message);
    }
    if (options.batches_per_second > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<int64_t>(1e6 / options.batches_per_second)));
    }
  }

  GoodbyePayload goodbye;
  goodbye.windows_valid = meter.quality.windows_valid;
  goodbye.windows_partial = meter.quality.windows_partial;
  goodbye.windows_gap = meter.quality.windows_gap;
  SMETER_RETURN_IF_ERROR(client.SendFrame(MakeGoodbye(goodbye)));
  stats->frames_sent.fetch_add(1, std::memory_order_relaxed);
  reply = client.RecvFrame();
  if (!reply.ok()) return reply.status();
  SMETER_RETURN_IF_ERROR(
      CheckThrottle(*reply, meter.name, stats, retry_hint_ms));
  return ExpectOkAck(*reply, FrameType::kGoodbyeAck);
}

// Classic mode: one fresh connection per attempt.
Status UploadOnce(const LoadgenOptions& options, const PreparedUpload& meter,
                  SharedStats* stats, uint32_t* retry_hint_ms) {
  FramedClient client;
  SMETER_RETURN_IF_ERROR(
      client.Connect(options.host, options.port, options.io_timeout_ms));
  stats->connections_opened.fetch_add(1, std::memory_order_relaxed);
  return UploadConversation(options, meter, &client, stats, retry_hint_ms);
}

void RunMeter(const LoadgenOptions& options, const PreparedUpload& meter,
              SharedStats* stats) {
  const int attempts = options.max_attempts < 1 ? 1 : options.max_attempts;
  uint64_t rng = JitterSeed(meter.name);
  uint32_t retry_hint_ms = 0;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1) {
      stats->reconnects.fetch_add(1, std::memory_order_relaxed);
      // Full-jitter backoff spreads a storm of retrying meters flat; the
      // server's THROTTLE hint, when present, sets the floor.
      std::this_thread::sleep_for(std::chrono::milliseconds(
          retry_hint_ms +
          FullJitterBackoffMs(attempt, options.backoff, &rng)));
    }
    retry_hint_ms = 0;
    if (UploadOnce(options, meter, stats, &retry_hint_ms).ok()) {
      stats->meters_ok.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  stats->meters_failed.fetch_add(1, std::memory_order_relaxed);
}

// Multiplexed mode: run one meter's session on a shared persistent
// connection, reconnecting (only this connection) on failure. The server
// cannot resynchronize a connection whose conversation died mid-frame, so
// any error tears the socket down before retrying.
void RunMeterMultiplexed(const LoadgenOptions& options,
                         const PreparedUpload& meter, FramedClient* client,
                         SharedStats* stats) {
  const int attempts = options.max_attempts < 1 ? 1 : options.max_attempts;
  uint64_t rng = JitterSeed(meter.name);
  uint32_t retry_hint_ms = 0;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1) {
      stats->reconnects.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(
          retry_hint_ms +
          FullJitterBackoffMs(attempt, options.backoff, &rng)));
    }
    retry_hint_ms = 0;
    if (!client->connected()) {
      if (!client->Connect(options.host, options.port, options.io_timeout_ms)
               .ok()) {
        continue;
      }
      stats->connections_opened.fetch_add(1, std::memory_order_relaxed);
    }
    if (UploadConversation(options, meter, client, stats, &retry_hint_ms)
            .ok()) {
      stats->meters_ok.fetch_add(1, std::memory_order_relaxed);
      return;  // connection stays open for the next meter
    }
    client->Abort();
  }
  stats->meters_failed.fetch_add(1, std::memory_order_relaxed);
}

Result<std::vector<std::pair<std::string, TimeSeries>>> LoadTraces(
    const LoadgenOptions& options) {
  std::vector<std::pair<std::string, TimeSeries>> traces;
  if (!options.input_cer.empty()) {
    Result<std::vector<std::pair<int64_t, TimeSeries>>> meters =
        data::LoadCerFile(options.input_cer);
    if (!meters.ok()) return meters.status();
    for (auto& [id, series] : *meters) {
      traces.emplace_back("meter_" + std::to_string(id), std::move(series));
    }
  } else {
    data::GeneratorOptions generator = options.generator;
    generator.num_houses = options.meters;
    for (size_t h = 0; h < options.meters; ++h) {
      Result<TimeSeries> series = data::GenerateHouseSeries(h, generator);
      if (!series.ok()) return series.status();
      // Same naming as the simulator's CER export: meter ids 1000+house.
      traces.emplace_back("meter_" + std::to_string(1000 + h),
                          std::move(series.value()));
    }
  }
  if (traces.empty()) return FailedPreconditionError("no meters to replay");
  return traces;
}

}  // namespace

std::string LoadgenReport::ToJson() const {
  std::ostringstream out;
  out << "{\n"
      << "  \"meters_total\": " << meters_total << ",\n"
      << "  \"meters_ok\": " << meters_ok << ",\n"
      << "  \"meters_failed\": " << meters_failed << ",\n"
      << "  \"frames_sent\": " << frames_sent << ",\n"
      << "  \"symbols_sent\": " << symbols_sent << ",\n"
      << "  \"reconnects\": " << reconnects << ",\n"
      << "  \"batches_dropped\": " << batches_dropped << ",\n"
      << "  \"connections_opened\": " << connections_opened << ",\n"
      << "  \"throttled\": " << throttled << "\n"
      << "}";
  return out.str();
}

Result<std::vector<PreparedUpload>> PrepareFleetUploads(
    const LoadgenOptions& options) {
  Result<std::vector<std::pair<std::string, TimeSeries>>> traces =
      LoadTraces(options);
  if (!traces.ok()) return traces.status();
  std::vector<PreparedUpload> prepared;
  prepared.reserve(traces->size());
  for (const auto& [name, trace] : *traces) {
    Result<PreparedUpload> meter = PrepareMeter(name, trace, options.encode);
    if (!meter.ok()) {
      return Status(meter.status().code(),
                    name + ": " + meter.status().message());
    }
    prepared.push_back(std::move(meter.value()));
  }
  return prepared;
}

Result<LoadgenReport> RunLoadgen(const LoadgenOptions& options) {
  // Sensor-side encode up front (CPU-bound, deterministic), then the
  // network phase replays the prepared uploads.
  Result<std::vector<PreparedUpload>> prepared_or =
      PrepareFleetUploads(options);
  if (!prepared_or.ok()) return prepared_or.status();
  std::vector<PreparedUpload> prepared = std::move(prepared_or.value());

  SharedStats stats;
  std::vector<std::thread> threads;
  std::atomic<size_t> next{0};
  if (options.connections > 0) {
    // Multiplexed mode: meter i rides persistent connection i % N. The
    // static stride keeps each connection's meter set deterministic, which
    // the shard-pinning regression test relies on.
    const size_t conns = std::min(options.connections, prepared.size());
    threads.reserve(conns);
    for (size_t c = 0; c < conns; ++c) {
      // `conns` by value: this block ends before the threads are joined.
      threads.emplace_back([&, c, conns] {
        FramedClient client;
        for (size_t index = c; index < prepared.size(); index += conns) {
          RunMeterMultiplexed(options, prepared[index], &client, &stats);
        }
      });
    }
  } else {
    const size_t workers =
        std::min(options.concurrency == 0 ? 1 : options.concurrency,
                 prepared.size());
    threads.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&] {
        for (;;) {
          const size_t index = next.fetch_add(1, std::memory_order_relaxed);
          if (index >= prepared.size()) return;
          RunMeter(options, prepared[index], &stats);
        }
      });
    }
  }
  for (std::thread& thread : threads) thread.join();

  LoadgenReport report;
  report.meters_total = prepared.size();
  report.meters_ok = stats.meters_ok.load();
  report.meters_failed = stats.meters_failed.load();
  report.frames_sent = stats.frames_sent.load();
  report.symbols_sent = stats.symbols_sent.load();
  report.reconnects = stats.reconnects.load();
  report.batches_dropped = stats.batches_dropped.load();
  report.connections_opened = stats.connections_opened.load();
  report.throttled = stats.throttled.load();
  return report;
}

}  // namespace smeter::net
