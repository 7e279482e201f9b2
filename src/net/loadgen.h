// Load generator: replays a fleet of meters against a running ingestd over
// real TCP sockets.
//
// Each simulated meter runs the full sensor-side pipeline before touching
// the network — exactly the steps `smeter encode-fleet` performs per
// household (history slice, per-meter LookupTable::Build, gap-aware
// encode) — and then uploads the result through the wire protocol:
// HELLO, TABLE_ANNOUNCE (the table's Serialize() bytes verbatim),
// SYMBOL_BATCH stream, GOODBYE carrying the client-side quality counts.
// Because both paths share the encoding code and the sink writes the
// announced table blob untouched, a loadgen run against ingestd yields a
// byte-identical archive to an offline encode-fleet run over the same
// input.
//
// Fault seam `loadgen.drop` aborts the socket mid-conversation (a meter
// dying mid-SYMBOL_BATCH); the worker then reconnects and re-uploads from
// scratch, which the server answers with either a fresh persist or a
// "duplicate" ack — the reconnect-convergence test drives exactly this.

#ifndef SMETER_NET_LOADGEN_H_
#define SMETER_NET_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/encoder.h"
#include "core/fleet_encoder.h"
#include "core/symbolic_series.h"
#include "data/generator.h"

namespace smeter::net {

// Retry backoff shape: full-jitter exponential (delay drawn uniformly
// from [0, min(cap, base * 2^(attempt-2))]). Deterministic exponential
// backoff resynchronizes a fleet that failed together — every meter
// sleeps the same schedule and the whole storm returns as one wave; the
// jitter spreads the wave flat.
struct BackoffPolicy {
  int64_t base_ms = 50;    // ceiling of the first retry's draw
  int64_t cap_ms = 2'000;  // exponential growth clamp
};

// xorshift64: the tiny deterministic PRNG behind the jitter draw. `state`
// must be non-zero; returns the next state.
uint64_t XorShift64(uint64_t* state);

// The delay before `attempt` (attempt 2 = the first retry; attempt <= 1
// returns 0). Pure and clock-free: unit tests drive the schedule with a
// seeded rng state. Callers add any server-provided retry_after_ms hint
// on top.
int64_t FullJitterBackoffMs(int attempt, const BackoffPolicy& policy,
                            uint64_t* rng_state);

// Per-meter deterministic jitter seed (FNV-1a of the meter name, never
// zero): distinct meters draw distinct backoff schedules without sharing
// rng state. The load generator and the spool uploader both seed from it.
uint64_t JitterSeed(const std::string& name);

struct LoadgenOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string auth_token;

  // Fleet source. With `input_cer` set, the CER file is loaded exactly as
  // encode-fleet --format cer would (names "meter_<id>"); otherwise
  // `meters` traces are synthesized from `generator` (meter ids 1000+i,
  // the simulator's CER convention).
  std::string input_cer;
  size_t meters = 10;
  data::GeneratorOptions generator;

  // Sensor-side encoding parameters; must match the offline encode-fleet
  // flags when comparing archives.
  FleetEncodeOptions encode;

  // Upload shaping.
  size_t batch_symbols = 512;   // symbols per SYMBOL_BATCH frame
  size_t concurrency = 8;       // parallel meter connections
  double batches_per_second = 0;  // per-connection throttle; 0 = full rate
  int max_attempts = 5;         // connection attempts per meter
  int64_t io_timeout_ms = 10'000;  // per-socket send/recv timeout
  // Retry pacing between attempts. A THROTTLE push-back's retry_after_ms
  // hint is added on top of the jittered draw, so a shed client waits at
  // least as long as the server asked.
  BackoffPolicy backoff;
  // Connection multiplexing: with N > 0, the fleet is partitioned across N
  // persistent TCP connections (meter i rides connection i % N) and each
  // connection carries its meters' sessions back-to-back — HELLO ..
  // GOODBYE_ACK, then the next meter's HELLO on the same socket, exercising
  // the server's keep-alive session reset. A failed conversation drops and
  // reopens only that connection. 0 keeps the classic
  // one-connection-per-meter mode driven by `concurrency`.
  size_t connections = 0;
};

// One meter's sensor-side result, computed before any socket is opened:
// the serialized table plus the symbol stream and quality counts, i.e.
// everything an upload conversation (or a client-SDK spool) needs.
struct PreparedUpload {
  std::string name;
  std::string table_blob;
  SymbolicSeries symbols{1};
  EncodeQuality quality;
};

// Runs the sensor-side pipeline for the whole fleet described by
// `options` (CER file or generator; encode parameters) without touching
// the network. This is the shared front half of RunLoadgen and of the
// client SDK's spool-and-forward mode (client/uploader.h), so both paths
// produce bit-identical tables and symbol streams from the same input.
Result<std::vector<PreparedUpload>> PrepareFleetUploads(
    const LoadgenOptions& options);

struct LoadgenReport {
  size_t meters_total = 0;
  size_t meters_ok = 0;        // GOODBYE acked kOk
  size_t meters_failed = 0;    // all attempts exhausted
  uint64_t frames_sent = 0;
  uint64_t symbols_sent = 0;
  uint64_t reconnects = 0;     // attempts beyond each meter's first
  uint64_t batches_dropped = 0;  // aborts from the loadgen.drop seam
  uint64_t connections_opened = 0;  // actual TCP connects performed
  uint64_t throttled = 0;  // THROTTLE push-backs received in place of acks

  std::string ToJson() const;
};

// Runs the whole fleet to completion (or failure) and reports. Errors only
// on setup problems (bad input file, no traces); per-meter upload failures
// are counted, not fatal.
Result<LoadgenReport> RunLoadgen(const LoadgenOptions& options);

}  // namespace smeter::net

#endif  // SMETER_NET_LOADGEN_H_
