#include "client/uploader.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <thread>
#include <utility>

#include "client/spool.h"
#include "common/fault_injection.h"
#include "net/framed_client.h"
#include "net/wire.h"

namespace smeter::client {
namespace {

namespace fs = std::filesystem;
using net::Frame;
using net::FrameType;
using net::WireStatus;

// The kill-at-every-frame seam: an injected `client.send` failure aborts
// the conversation exactly as a client crash between two writes would.
Status SendFrame(net::FramedClient* transport, const Frame& frame) {
  if (Status fault = fault::Check("client.send"); !fault.ok()) {
    transport->Abort();
    return fault;
  }
  return transport->SendFrame(frame);
}

// A THROTTLE in place of any awaited ack fails the attempt and records the
// server's retry_after_ms hint for the backoff floor.
Status CheckThrottle(const Frame& frame, const std::string& meter_id,
                     UploadOutcome* outcome, uint32_t* retry_hint_ms) {
  if (frame.type != FrameType::kThrottle) return Status::Ok();
  ++outcome->throttled;
  Result<net::ThrottlePayload> throttle = net::ParseThrottle(frame);
  if (!throttle.ok()) {
    return InternalError(meter_id + ": malformed THROTTLE: " +
                         throttle.status().message());
  }
  if (throttle->retry_after_ms > *retry_hint_ms) {
    *retry_hint_ms = throttle->retry_after_ms;
  }
  return InternalError(meter_id + ": throttled [" +
                       net::ThrottleScopeName(throttle->scope) + "] " +
                       throttle->message);
}

// One complete replay of the spool as a wire conversation over a fresh
// connection. Any error aborts the attempt; the caller retries with the
// whole conversation from the start (safe: the server persists only at
// GOODBYE, and a meter persisted by an earlier attempt gets the
// duplicate ack).
Status UploadConversation(const UploaderOptions& options,
                          const SpoolContents& spool, UploadOutcome* outcome,
                          uint32_t* retry_hint_ms) {
  // The partition seam: tests fail connects deterministically or with a
  // seeded probability to simulate an unreachable aggregator.
  SMETER_FAULT_POINT("client.connect");
  net::FramedClient transport;
  SMETER_RETURN_IF_ERROR(
      transport.Connect(options.host, options.port, options.io_timeout_ms));

  net::HelloPayload hello;
  hello.protocol_version = net::kProtocolVersion;
  hello.meter_id = spool.header.meter_id;
  hello.auth_token = options.auth_token;
  SMETER_RETURN_IF_ERROR(SendFrame(&transport, net::MakeHello(hello)));
  ++outcome->frames_sent;
  Result<Frame> reply = transport.RecvFrame();
  if (!reply.ok()) return reply.status();
  SMETER_RETURN_IF_ERROR(
      CheckThrottle(*reply, hello.meter_id, outcome, retry_hint_ms));
  SMETER_RETURN_IF_ERROR(net::ExpectOkAck(*reply, FrameType::kHelloAck));

  net::TableAnnouncePayload announce;
  announce.table_version = spool.header.table_version;
  announce.table_blob = spool.header.table_blob;
  SMETER_RETURN_IF_ERROR(
      SendFrame(&transport, net::MakeTableAnnounce(announce)));
  ++outcome->frames_sent;
  reply = transport.RecvFrame();
  if (!reply.ok()) return reply.status();
  SMETER_RETURN_IF_ERROR(
      CheckThrottle(*reply, hello.meter_id, outcome, retry_hint_ms));
  SMETER_RETURN_IF_ERROR(net::ExpectOkAck(*reply, FrameType::kTableAck));

  for (const SpoolBatch& spooled : spool.batches) {
    net::SymbolBatchPayload batch;
    batch.seq = spooled.seq;
    batch.start_timestamp = spooled.start_timestamp;
    batch.step_seconds = spool.header.step_seconds;
    batch.level = spool.header.level;
    batch.symbols = spooled.symbols;
    SMETER_RETURN_IF_ERROR(SendFrame(&transport, net::MakeSymbolBatch(batch)));
    ++outcome->frames_sent;
    outcome->symbols_sent += spooled.symbols.size();
    reply = transport.RecvFrame();
    if (!reply.ok()) return reply.status();
    SMETER_RETURN_IF_ERROR(
        CheckThrottle(*reply, hello.meter_id, outcome, retry_hint_ms));
    Result<net::BatchAckPayload> ack = net::ParseBatchAck(*reply);
    if (!ack.ok()) return ack.status();
    if (ack->status != WireStatus::kOk) {
      return InternalError(std::string("batch refused: [") +
                           net::WireStatusName(ack->status) + "] " +
                           ack->message);
    }
  }

  net::GoodbyePayload goodbye;
  goodbye.windows_valid = spool.seal.windows_valid;
  goodbye.windows_partial = spool.seal.windows_partial;
  goodbye.windows_gap = spool.seal.windows_gap;
  SMETER_RETURN_IF_ERROR(SendFrame(&transport, net::MakeGoodbye(goodbye)));
  ++outcome->frames_sent;
  reply = transport.RecvFrame();
  if (!reply.ok()) return reply.status();
  SMETER_RETURN_IF_ERROR(
      CheckThrottle(*reply, hello.meter_id, outcome, retry_hint_ms));
  return net::ExpectOkAck(*reply, FrameType::kGoodbyeAck);
}

}  // namespace

UploadOutcome UploadSpool(const UploaderOptions& options,
                          const std::string& path) {
  UploadOutcome outcome;
  outcome.path = path;

  Result<SpoolContents> spool = ReadSpool(path);
  if (!spool.ok()) {
    outcome.status = spool.status();
    return outcome;
  }
  outcome.meter_id = spool->header.meter_id;
  if (spool->done) {
    // The DONE marker means a previous run saw GOODBYE_ACK(kOk), which the
    // server only sends after the archive write is durable. Nothing to do.
    outcome.already_done = true;
    outcome.delivered = true;
    if (options.remove_done) {
      std::error_code error;
      fs::remove(path, error);
    }
    return outcome;
  }
  if (!spool->sealed) {
    // Still accumulating batches; GOODBYE needs the SEAL's quality counts.
    outcome.skipped_unsealed = true;
    return outcome;
  }
  if (spool->torn_tail) {
    // Repair before replaying so a retried upload and a later Resume()
    // agree on the record stream.
    if (Status truncated = io::TruncateFile(path, spool->valid_bytes);
        !truncated.ok()) {
      outcome.status = truncated;
      return outcome;
    }
  }

  const int attempts = options.max_attempts < 1 ? 1 : options.max_attempts;
  uint64_t rng = net::JitterSeed(outcome.meter_id);
  uint32_t retry_hint_ms = 0;
  Status last = InternalError("no attempts made");
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          retry_hint_ms +
          net::FullJitterBackoffMs(attempt, options.backoff, &rng)));
    }
    retry_hint_ms = 0;
    ++outcome.attempts;
    last = UploadConversation(options, *spool, &outcome, &retry_hint_ms);
    if (last.ok()) break;
  }
  if (!last.ok()) {
    outcome.status = last;
    return outcome;
  }

  // The ack is in hand: the server has durably persisted this meter. Make
  // "delivered" just as durable on the client before reporting success, so
  // a crash right here re-uploads (converging via the duplicate ack)
  // instead of losing track.
  Result<Spool> writer = Spool::Resume(path);
  Status done = writer.ok() ? writer->MarkDone() : writer.status();
  if (!done.ok()) {
    outcome.status = done;
    return outcome;
  }
  outcome.delivered = true;
  if (options.remove_done) {
    std::error_code error;
    fs::remove(path, error);
  }
  return outcome;
}

std::string UplinkReport::ToJson() const {
  std::ostringstream out;
  out << "{\n"
      << "  \"spools_total\": " << spools_total << ",\n"
      << "  \"delivered\": " << delivered << ",\n"
      << "  \"already_done\": " << already_done << ",\n"
      << "  \"skipped_unsealed\": " << skipped_unsealed << ",\n"
      << "  \"failed\": " << failed << ",\n"
      << "  \"attempts\": " << attempts << ",\n"
      << "  \"reconnects\": " << reconnects << ",\n"
      << "  \"throttled\": " << throttled << ",\n"
      << "  \"frames_sent\": " << frames_sent << ",\n"
      << "  \"symbols_sent\": " << symbols_sent << "\n"
      << "}";
  return out.str();
}

Result<UplinkReport> DrainSpoolDir(const UploaderOptions& options,
                                   const std::string& dir,
                                   size_t concurrency) {
  std::error_code error;
  if (!fs::is_directory(dir, error) || error) {
    return NotFoundError("not a directory: " + dir);
  }
  std::vector<std::string> paths;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, error)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    const std::string suffix = kSpoolSuffix;
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      paths.push_back(dir + "/" + name);
    }
  }
  if (error) {
    return InternalError("cannot walk " + dir + ": " + error.message());
  }
  std::sort(paths.begin(), paths.end());

  std::vector<UploadOutcome> outcomes(paths.size());
  const size_t workers =
      std::min(concurrency == 0 ? 1 : concurrency,
               paths.empty() ? size_t{1} : paths.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      for (;;) {
        const size_t index = next.fetch_add(1, std::memory_order_relaxed);
        if (index >= paths.size()) return;
        outcomes[index] = UploadSpool(options, paths[index]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  UplinkReport report;
  report.spools_total = outcomes.size();
  for (const UploadOutcome& outcome : outcomes) {
    report.attempts += outcome.attempts;
    report.reconnects += outcome.attempts > 0 ? outcome.attempts - 1 : 0;
    report.throttled += outcome.throttled;
    report.frames_sent += outcome.frames_sent;
    report.symbols_sent += outcome.symbols_sent;
    if (outcome.already_done) {
      ++report.already_done;
    } else if (outcome.skipped_unsealed) {
      ++report.skipped_unsealed;
    } else if (outcome.delivered) {
      ++report.delivered;
    } else {
      ++report.failed;
    }
  }
  return report;
}

Result<UplinkReport> RunSpoolFleet(const net::LoadgenOptions& options,
                                   const std::string& spool_dir,
                                   bool remove_done) {
  std::error_code error;
  fs::create_directories(spool_dir, error);
  if (error) {
    return InternalError("cannot create spool dir " + spool_dir + ": " +
                         error.message());
  }

  Result<std::vector<net::PreparedUpload>> prepared =
      net::PrepareFleetUploads(options);
  if (!prepared.ok()) return prepared.status();

  // Phase 1, spooling — serial and deterministic, so the kill-anywhere
  // chaos tests can address "the Nth spool append" by global call number.
  // Every append is fsynced; a crash (or injected append failure) at any
  // point leaves spools that the next run resumes exactly where they
  // stopped.
  const size_t batch_size =
      options.batch_symbols == 0 ? 512 : options.batch_symbols;
  for (const net::PreparedUpload& meter : *prepared) {
    const auto& samples = meter.symbols.samples();
    const int64_t step = samples.size() >= 2
                             ? samples[1].timestamp - samples[0].timestamp
                             : options.encode.pipeline.window_seconds;
    SpoolHeader header;
    header.meter_id = meter.name;
    header.table_version = 1;
    header.level = static_cast<uint8_t>(meter.symbols.level());
    header.step_seconds = step;
    header.table_blob = meter.table_blob;
    Result<Spool> spool =
        Spool::OpenOrCreate(spool_dir + "/" + meter.name + kSpoolSuffix,
                            header);
    if (!spool.ok()) return spool.status();
    if (spool->done()) continue;  // delivered by a previous run
    // Resume where the last durable batch ended. Batches need not all be
    // the same size for the protocol; resuming by spooled-symbol count is
    // what makes a re-run with the same input land the identical stream.
    for (size_t begin = spool->symbols_spooled();
         !spool->sealed() && begin < samples.size(); begin += batch_size) {
      const size_t end = std::min(begin + batch_size, samples.size());
      SpoolBatch batch;
      batch.seq = spool->next_seq();
      batch.start_timestamp = samples[begin].timestamp;
      batch.symbols.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        batch.symbols.push_back(
            samples[i].symbol.is_gap()
                ? net::kWireGapSymbol
                : static_cast<uint16_t>(samples[i].symbol.index()));
      }
      SMETER_RETURN_IF_ERROR(spool->AppendBatch(batch));
    }
    if (!spool->sealed()) {
      SpoolSeal seal;
      seal.windows_valid = meter.quality.windows_valid;
      seal.windows_partial = meter.quality.windows_partial;
      seal.windows_gap = meter.quality.windows_gap;
      SMETER_RETURN_IF_ERROR(spool->Seal(seal));
    }
  }

  // Phase 2, uplink — the sealed spools travel through the standard drain.
  UploaderOptions uploader;
  uploader.host = options.host;
  uploader.port = options.port;
  uploader.auth_token = options.auth_token;
  uploader.max_attempts = options.max_attempts;
  uploader.io_timeout_ms = options.io_timeout_ms;
  uploader.backoff = options.backoff;
  uploader.remove_done = remove_done;
  return DrainSpoolDir(uploader, spool_dir, options.concurrency);
}

}  // namespace smeter::client
