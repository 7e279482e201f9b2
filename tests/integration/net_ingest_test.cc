// End-to-end drills for the ingestion daemon over real loopback sockets:
// a loadgen fleet streamed through ingestd must leave an archive
// byte-identical to the offline `encode-fleet` run on the same traces;
// dropped connections must reconnect and converge; and a damaged archive
// must come back through fsck --repair plus a --resume restart — the same
// crash-recovery contract the storage layer gives the offline pipeline.
//
// CI soaks the seeded test (NetIngestSoakTest) across many
// SMETER_FAULT_SEED values under ASan; see .github/workflows.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli.h"
#include "common/fault_injection.h"
#include "common/sync.h"
#include "core/fleet_manifest.h"
#include "net/archive_sink.h"
#include "net/ingest_server.h"
#include "net/loadgen.h"
#include "net/query_server.h"
#include "net/query_wire.h"
#include "net/wire.h"
#include "testutil.h"

#ifndef POLLRDHUP
#define POLLRDHUP 0x2000
#endif

namespace smeter {
namespace {

constexpr size_t kMeters = 6;

std::string RunCliOk(const std::vector<std::string>& args) {
  std::ostringstream out;
  Status status = cli::RunCli(args, out);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out.str();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// A fresh scratch dir with a simulated CER fleet at <dir>/meters.cer.
std::string MakeFleetDir(const std::string& name) {
  std::string dir = smeter::testing::TempPath(name);
  std::filesystem::remove_all(dir);
  RunCliOk({"simulate", "--format", "cer", "--out", dir, "--houses",
            std::to_string(kMeters), "--days", "2", "--seed", "17",
            "--outages", "1.0"});
  return dir;
}

// The offline reference: encode-fleet over the same CER file with the
// same sensor-side parameters the loadgen meters use.
void EncodeFleetOffline(const std::string& cer, const std::string& out_dir) {
  RunCliOk({"encode-fleet", "--input", cer, "--format", "cer", "--out",
            out_dir, "--window", "1800", "--sample-period", "1800",
            "--threads", "1", "--max-retries", "0"});
}

// Every artifact a completed kMeters CER fleet leaves behind (simulate
// numbers CER meters from 1000).
std::vector<std::string> NetArtifacts() {
  std::vector<std::string> names;
  for (size_t m = 0; m < kMeters; ++m) {
    names.push_back("meter_" + std::to_string(1000 + m) + ".table");
    names.push_back("meter_" + std::to_string(1000 + m) + ".symbols");
  }
  names.push_back("fleet.manifest");
  names.push_back("quality.json");
  return names;
}

void ExpectDirsBitIdentical(const std::string& a, const std::string& b) {
  for (const std::string& name : NetArtifacts()) {
    SCOPED_TRACE(name);
    std::string contents = ReadAll(a + "/" + name);
    EXPECT_FALSE(contents.empty());
    EXPECT_EQ(contents, ReadAll(b + "/" + name));
  }
}

// An ingest server running on its own thread; joins on destruction.
// Not movable: the serving thread holds `this`.
struct RunningServer {
  std::unique_ptr<net::IngestServer> server;
  std::thread thread;
  Status result;

  RunningServer() = default;
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  void Start(net::IngestServerOptions options) {
    auto created = net::IngestServer::Create(std::move(options));
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    if (!created.ok()) return;
    server = std::move(created.value());
    thread = std::thread([this] { result = server->Run(); });
  }

  // Like Start, but routes RequestStatsDump's JSON into `stats_out`
  // (redirected before the serving thread can claim the server role).
  void StartWithStats(net::IngestServerOptions options,
                      std::ostream* stats_out) {
    auto created = net::IngestServer::Create(std::move(options));
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    if (!created.ok()) return;
    server = std::move(created.value());
    {
      ScopedThreadRole owner(server->role());
      server->set_stats_out(stats_out);
    }
    thread = std::thread([this] { result = server->Run(); });
  }

  void DrainAndJoin() {
    if (!thread.joinable()) return;
    server->RequestDrain();
    thread.join();
  }

  ~RunningServer() {
    if (thread.joinable()) {
      server->RequestDrain();
      thread.join();
    }
  }
};

net::IngestServerOptions ServerOptions(const std::string& archive_dir) {
  net::IngestServerOptions options;
  options.archive_dir = archive_dir;
  options.port = 0;  // ephemeral
  options.drain_grace_ms = 500;
  return options;
}

// Loadgen options mirroring EncodeFleetOffline's sensor-side parameters.
net::LoadgenOptions LoadgenOptions(uint16_t port, const std::string& cer) {
  net::LoadgenOptions options;
  options.port = port;
  options.input_cer = cer;
  options.encode.pipeline.window_seconds = 1800;
  options.encode.pipeline.window.sample_period_seconds = 1800;
  options.encode.gap_aware = true;
  options.batch_symbols = 16;  // several SYMBOL_BATCH frames per meter
  options.concurrency = 3;
  return options;
}

net::LoadgenReport RunLoadgenOk(const net::LoadgenOptions& options) {
  Result<net::LoadgenReport> report = net::RunLoadgen(options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? report.value() : net::LoadgenReport{};
}

TEST(NetIngestTest, LoopbackArchiveMatchesOfflineEncodeFleet) {
  std::string dir = MakeFleetDir("net_ingest_equivalence");
  const std::string cer = dir + "/meters.cer";
  EncodeFleetOffline(cer, dir + "/offline");

  net::IngestServerOptions server_options = ServerOptions(dir + "/online");
  server_options.exit_after_households = kMeters;
  RunningServer running;
  running.Start(std::move(server_options));
  ASSERT_NE(running.server, nullptr);

  net::LoadgenReport report =
      RunLoadgenOk(LoadgenOptions(running.server->port(), cer));
  running.thread.join();  // exit_after_households drains the server
  ASSERT_OK(running.result);

  EXPECT_EQ(report.meters_total, kMeters);
  EXPECT_EQ(report.meters_ok, kMeters);
  EXPECT_EQ(report.meters_failed, 0u);
  EXPECT_EQ(report.reconnects, 0u);
  EXPECT_GT(report.symbols_sent, 0u);

  // The serving thread has joined; the test thread owns the server again.
  ScopedThreadRole owner(running.server->role());
  const net::IngestCounters& counters = running.server->counters();
  EXPECT_EQ(counters.sessions_completed, kMeters);
  EXPECT_EQ(counters.households_persisted, kMeters);
  EXPECT_EQ(counters.symbols_persisted, report.symbols_sent);
  EXPECT_EQ(counters.decode_errors, 0u);

  // The tentpole acceptance bar: the networked archive is byte-identical
  // to the offline one, so fsck/decode/info tooling applies unchanged.
  ExpectDirsBitIdentical(dir + "/offline", dir + "/online");
}

TEST(NetIngestTest, DroppedConnectionsReconnectAndConverge) {
  std::string dir = MakeFleetDir("net_ingest_reconnect");
  const std::string cer = dir + "/meters.cer";
  EncodeFleetOffline(cer, dir + "/offline");

  net::IngestServerOptions server_options = ServerOptions(dir + "/online");
  server_options.exit_after_households = kMeters;
  RunningServer running;
  running.Start(std::move(server_options));
  ASSERT_NE(running.server, nullptr);

  net::LoadgenReport report;
  {
    // Kill the socket under the 2nd and 3rd batch sends: the affected
    // meters die mid-upload and must reconnect and re-upload from scratch.
    fault::ScopedFaultPlan plan(
        {fault::FaultRule::FailCalls("loadgen.drop", 2, 3)});
    report = RunLoadgenOk(LoadgenOptions(running.server->port(), cer));
    EXPECT_EQ(plan.TotalInjected(), 2u);
  }
  running.thread.join();
  ASSERT_OK(running.result);

  EXPECT_EQ(report.meters_ok, kMeters);
  EXPECT_GE(report.reconnects, 1u);
  EXPECT_GE(report.batches_dropped, 1u);
  // The server saw the dropped sessions and quarantined them.
  ScopedThreadRole owner(running.server->role());
  EXPECT_GE(running.server->counters().sessions_dropped, 1u);
  EXPECT_GT(running.server->counters().sessions_accepted, kMeters);

  ExpectDirsBitIdentical(dir + "/offline", dir + "/online");
}

TEST(NetIngestTest, AcceptFaultSeamCostsOneConnectionNotTheListener) {
  std::string dir = MakeFleetDir("net_ingest_accept_fault");
  const std::string cer = dir + "/meters.cer";
  EncodeFleetOffline(cer, dir + "/offline");

  net::IngestServerOptions server_options = ServerOptions(dir + "/online");
  server_options.exit_after_households = kMeters;
  RunningServer running;
  running.Start(std::move(server_options));
  ASSERT_NE(running.server, nullptr);

  net::LoadgenReport report;
  {
    // The seam fails the first accept: the server closes that socket, the
    // affected meter sees a dead connection and retries, and the listener
    // itself keeps serving the rest of the fleet.
    fault::ScopedFaultPlan plan(
        {fault::FaultRule::FailCalls("net.accept", 1, 1)});
    report = RunLoadgenOk(LoadgenOptions(running.server->port(), cer));
    EXPECT_EQ(plan.TotalInjected(), 1u);
  }
  running.thread.join();
  ASSERT_OK(running.result);

  EXPECT_EQ(report.meters_ok, kMeters);
  EXPECT_GE(report.reconnects, 1u);
  ScopedThreadRole owner(running.server->role());
  EXPECT_GE(running.server->counters().sessions_dropped, 1u);
  ExpectDirsBitIdentical(dir + "/offline", dir + "/online");
}

TEST(NetIngestTest, RefusedTableQuarantinesSessionNotDaemon) {
  std::string dir = MakeFleetDir("net_ingest_bad_table");
  const std::string cer = dir + "/meters.cer";
  EncodeFleetOffline(cer, dir + "/offline");

  net::IngestServerOptions server_options = ServerOptions(dir + "/online");
  server_options.exit_after_households = kMeters;
  RunningServer running;
  running.Start(std::move(server_options));
  ASSERT_NE(running.server, nullptr);

  net::LoadgenReport report;
  {
    // The first TABLE_ANNOUNCE the server validates is refused with
    // kBadTable; that meter's retry (and everyone else) goes through.
    fault::ScopedFaultPlan plan(
        {fault::FaultRule::FailCalls("session.table", 1, 1)});
    report = RunLoadgenOk(LoadgenOptions(running.server->port(), cer));
    EXPECT_EQ(plan.TotalInjected(), 1u);
  }
  running.thread.join();
  ASSERT_OK(running.result);

  EXPECT_EQ(report.meters_ok, kMeters);
  EXPECT_GE(report.reconnects, 1u);
  ScopedThreadRole owner(running.server->role());
  EXPECT_GE(running.server->counters().sessions_dropped, 1u);
  ExpectDirsBitIdentical(dir + "/offline", dir + "/online");
}

TEST(NetIngestTest, ReUploadedFleetIsAcknowledgedAsDuplicates) {
  std::string dir = MakeFleetDir("net_ingest_duplicate");
  const std::string cer = dir + "/meters.cer";
  EncodeFleetOffline(cer, dir + "/offline");

  RunningServer running;
  running.Start(ServerOptions(dir + "/online"));
  ASSERT_NE(running.server, nullptr);

  net::LoadgenOptions loadgen = LoadgenOptions(running.server->port(), cer);
  net::LoadgenReport first = RunLoadgenOk(loadgen);
  EXPECT_EQ(first.meters_ok, kMeters);
  // The whole fleet re-uploads (a fleet-wide reconnect after, say, a
  // power cut): every GOODBYE is acked OK without rewriting anything.
  net::LoadgenReport second = RunLoadgenOk(loadgen);
  EXPECT_EQ(second.meters_ok, kMeters);

  running.DrainAndJoin();
  ASSERT_OK(running.result);
  ScopedThreadRole owner(running.server->role());
  EXPECT_EQ(running.server->counters().households_persisted, kMeters);
  EXPECT_EQ(running.server->counters().sessions_completed, 2 * kMeters);
  ExpectDirsBitIdentical(dir + "/offline", dir + "/online");
}

TEST(NetIngestTest, DrainedServerRefusesNewSessions) {
  std::string dir = MakeFleetDir("net_ingest_drain_partial");
  const std::string cer = dir + "/meters.cer";

  // The server stops after half the fleet; the rest of the meters find a
  // closed listen socket and report failure instead of hanging.
  net::IngestServerOptions server_options = ServerOptions(dir + "/online");
  server_options.exit_after_households = kMeters / 2;
  RunningServer running;
  running.Start(std::move(server_options));
  ASSERT_NE(running.server, nullptr);

  net::LoadgenOptions loadgen = LoadgenOptions(running.server->port(), cer);
  loadgen.concurrency = 1;  // deterministic: meters land in name order
  loadgen.max_attempts = 1;
  Result<net::LoadgenReport> report = net::RunLoadgen(loadgen);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  running.thread.join();
  ASSERT_OK(running.result);

  EXPECT_EQ(report->meters_ok, kMeters / 2);
  EXPECT_EQ(report->meters_failed, kMeters - kMeters / 2);
  ScopedThreadRole owner(running.server->role());
  EXPECT_EQ(running.server->counters().households_persisted, kMeters / 2);

  // The partial archive is valid as far as it goes: fsck grades it clean.
  std::ostringstream out, err;
  EXPECT_EQ(cli::RunCliExitCode({"fsck", "--dir", dir + "/online"}, out,
                                err),
            0)
      << out.str() << err.str();
}

// The satellite drill: a partially-ingested archive is damaged on disk
// (torn manifest tail, a corrupted symbol file, a stray tmp), then
// fsck --repair plus a --resume restart plus a fleet-wide reconnect must
// converge to the bit-identical clean-run archive.
TEST(NetIngestTest, DamagedArchiveRepairsResumesAndConverges) {
  std::string dir = MakeFleetDir("net_ingest_crash_resume");
  const std::string cer = dir + "/meters.cer";
  EncodeFleetOffline(cer, dir + "/offline");
  const std::string online = dir + "/online";

  {
    net::IngestServerOptions server_options = ServerOptions(online);
    server_options.exit_after_households = 3;
    RunningServer running;
    running.Start(std::move(server_options));
    ASSERT_NE(running.server, nullptr);
    net::LoadgenOptions loadgen =
        LoadgenOptions(running.server->port(), cer);
    loadgen.concurrency = 1;
    loadgen.max_attempts = 1;
    Result<net::LoadgenReport> report = net::RunLoadgen(loadgen);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    running.thread.join();
    ASSERT_OK(running.result);
    ScopedThreadRole owner(running.server->role());
    ASSERT_EQ(running.server->counters().households_persisted, 3u);
  }

  // Damage the partial archive the way a crash plus a bad disk would.
  {
    std::string symbols = ReadAll(online + "/meter_1001.symbols");
    ASSERT_FALSE(symbols.empty());
    symbols[symbols.size() / 2] ^= 0x20;  // silent media corruption
    std::ofstream(online + "/meter_1001.symbols", std::ios::binary)
        << symbols;
    std::ofstream(online + "/fleet.manifest", std::ios::app)
        << "{\"name\":\"meter_10";  // torn mid-record append
    std::ofstream(online + "/meter_1099.symbols.tmp") << "leftover";
  }

  // fsck --repair: issues found and repaired -> exit 1, resume required;
  // a second pass must grade the repaired archive clean.
  {
    std::ostringstream out, err;
    EXPECT_EQ(cli::RunCliExitCode(
                  {"fsck", "--dir", online, "--repair", "true"}, out, err),
              1)
        << out.str() << err.str();
    std::ostringstream out2, err2;
    EXPECT_EQ(cli::RunCliExitCode({"fsck", "--dir", online}, out2, err2), 0)
        << out2.str() << err2.str();
  }

  // Restart with --resume; the whole fleet reconnects. Households that
  // survived the repair are acked as duplicates, the rest re-upload.
  {
    net::IngestServerOptions server_options = ServerOptions(online);
    server_options.resume = true;
    server_options.exit_after_households = kMeters;
    RunningServer running;
    running.Start(std::move(server_options));
    ASSERT_NE(running.server, nullptr);
    net::LoadgenReport report =
        RunLoadgenOk(LoadgenOptions(running.server->port(), cer));
    running.thread.join();
    ASSERT_OK(running.result);
    EXPECT_EQ(report.meters_ok, kMeters);
    // At least meter_1001 was re-persisted; at least meter_1000 carried.
    ScopedThreadRole owner(running.server->role());
    EXPECT_GE(running.server->counters().households_persisted, 1u);
    EXPECT_LT(running.server->counters().households_persisted, kMeters);
  }

  ExpectDirsBitIdentical(dir + "/offline", online);
}

// Meters whose hash-pinned home is each shard (simulate numbers CER
// meters from 1000, the same ids loadgen replays).
std::vector<uint64_t> HomesPerShard(int shards) {
  std::vector<uint64_t> counts(static_cast<size_t>(shards), 0);
  for (size_t m = 0; m < kMeters; ++m) {
    const std::string meter = "meter_" + std::to_string(1000 + m);
    ++counts[static_cast<size_t>(net::ShardForMeter(meter, shards))];
  }
  return counts;
}

// The multi-core tentpole acceptance bar: a --threads 4 run must leave an
// archive byte-identical to the offline single-threaded reference — shard
// logs unioned, records name-sorted, no per-shard files left behind.
TEST(NetIngestTest, ShardedArchiveIsByteIdenticalToSingleThreaded) {
  std::string dir = MakeFleetDir("net_ingest_sharded");
  const std::string cer = dir + "/meters.cer";
  EncodeFleetOffline(cer, dir + "/offline");

  net::IngestServerOptions server_options = ServerOptions(dir + "/online");
  server_options.threads = 4;
  server_options.exit_after_households = kMeters;
  RunningServer running;
  running.Start(std::move(server_options));
  ASSERT_NE(running.server, nullptr);
  EXPECT_EQ(running.server->shard_count(), 4);

  net::LoadgenReport report =
      RunLoadgenOk(LoadgenOptions(running.server->port(), cer));
  running.thread.join();
  ASSERT_OK(running.result);
  EXPECT_EQ(report.meters_ok, kMeters);

  ScopedThreadRole owner(running.server->role());
  const net::IngestCounters counters = running.server->counters();
  EXPECT_EQ(counters.sessions_completed, kMeters);
  EXPECT_EQ(counters.households_persisted, kMeters);
  EXPECT_EQ(counters.decode_errors, 0u);
  // Every connection re-homed by the HELLO peek was adopted somewhere.
  EXPECT_EQ(counters.handoffs_in, counters.handoffs_out);
  // Each meter persisted on its hash-pinned home shard, wherever the
  // kernel's SO_REUSEPORT choice first landed the connection.
  const std::vector<uint64_t> homes = HomesPerShard(4);
  for (int shard = 0; shard < 4; ++shard) {
    SCOPED_TRACE("shard " + std::to_string(shard));
    EXPECT_EQ(running.server->shard_counters(shard).households_persisted,
              homes[static_cast<size_t>(shard)]);
  }

  EXPECT_FALSE(
      std::filesystem::exists(dir + "/online/fleet.manifest.shard0"));
  ExpectDirsBitIdentical(dir + "/offline", dir + "/online");
}

// Satellite regression: meter-hash pinning is stable across reconnects —
// a meter that dies mid-upload and reconnects lands back on the same
// shard, so its Session state machine always has the same single writer.
TEST(NetIngestTest, MeterHashPinningIsStableAcrossReconnects) {
  std::string dir = MakeFleetDir("net_ingest_pinning");
  const std::string cer = dir + "/meters.cer";
  EncodeFleetOffline(cer, dir + "/offline");

  net::IngestServerOptions server_options = ServerOptions(dir + "/online");
  server_options.threads = 4;
  server_options.exit_after_households = kMeters;
  RunningServer running;
  running.Start(std::move(server_options));
  ASSERT_NE(running.server, nullptr);

  net::LoadgenReport report;
  {
    fault::ScopedFaultPlan plan(
        {fault::FaultRule::FailCalls("loadgen.drop", 2, 3)});
    report = RunLoadgenOk(LoadgenOptions(running.server->port(), cer));
    EXPECT_EQ(plan.TotalInjected(), 2u);
  }
  running.thread.join();
  ASSERT_OK(running.result);
  EXPECT_EQ(report.meters_ok, kMeters);
  EXPECT_GE(report.reconnects, 1u);

  // The loadgen.drop seam fires before any persist, so each meter
  // persists exactly once — and the pinning hash puts that persist on the
  // meter's home shard no matter how many times it reconnected.
  ScopedThreadRole owner(running.server->role());
  const std::vector<uint64_t> homes = HomesPerShard(4);
  for (int shard = 0; shard < 4; ++shard) {
    SCOPED_TRACE("shard " + std::to_string(shard));
    EXPECT_EQ(running.server->shard_counters(shard).households_persisted,
              homes[static_cast<size_t>(shard)]);
    EXPECT_EQ(running.server->shard_counters(shard).sessions_completed,
              homes[static_cast<size_t>(shard)]);
  }
  ExpectDirsBitIdentical(dir + "/offline", dir + "/online");
}

// The no-SO_REUSEPORT fallback: shard 0 owns the only listener and deals
// raw fds round-robin; the HELLO peek then re-homes each connection to its
// hash-pinned shard through the same mailbox.
TEST(NetIngestTest, SingleAcceptorFallbackRehomesByMeterHash) {
  std::string dir = MakeFleetDir("net_ingest_single_acceptor");
  const std::string cer = dir + "/meters.cer";
  EncodeFleetOffline(cer, dir + "/offline");

  net::IngestServerOptions server_options = ServerOptions(dir + "/online");
  server_options.threads = 3;
  server_options.force_single_acceptor = true;
  server_options.exit_after_households = kMeters;
  RunningServer running;
  running.Start(std::move(server_options));
  ASSERT_NE(running.server, nullptr);

  net::LoadgenReport report =
      RunLoadgenOk(LoadgenOptions(running.server->port(), cer));
  running.thread.join();
  ASSERT_OK(running.result);
  EXPECT_EQ(report.meters_ok, kMeters);

  ScopedThreadRole owner(running.server->role());
  const net::IngestCounters counters = running.server->counters();
  // All accepts happened on the dealing shard; with 3 shards at least some
  // fds were dealt or re-homed across the mailbox.
  EXPECT_EQ(running.server->shard_counters(1).sessions_accepted, 0u);
  EXPECT_EQ(running.server->shard_counters(2).sessions_accepted, 0u);
  EXPECT_GT(counters.handoffs_out, 0u);
  EXPECT_EQ(counters.handoffs_in, counters.handoffs_out);
  const std::vector<uint64_t> homes = HomesPerShard(3);
  for (int shard = 0; shard < 3; ++shard) {
    SCOPED_TRACE("shard " + std::to_string(shard));
    EXPECT_EQ(running.server->shard_counters(shard).households_persisted,
              homes[static_cast<size_t>(shard)]);
  }
  ExpectDirsBitIdentical(dir + "/offline", dir + "/online");
}

// loadgen --connections: the fleet multiplexes over two persistent TCP
// connections, sessions back-to-back on each socket; the server resets
// the session to ExpectHello after every GOODBYE_ACK instead of closing.
TEST(NetIngestTest, MultiplexedConnectionsCarrySessionsBackToBack) {
  std::string dir = MakeFleetDir("net_ingest_multiplexed");
  const std::string cer = dir + "/meters.cer";
  EncodeFleetOffline(cer, dir + "/offline");

  net::IngestServerOptions server_options = ServerOptions(dir + "/online");
  server_options.threads = 2;
  server_options.exit_after_households = kMeters;
  RunningServer running;
  running.Start(std::move(server_options));
  ASSERT_NE(running.server, nullptr);

  net::LoadgenOptions loadgen = LoadgenOptions(running.server->port(), cer);
  loadgen.connections = 2;
  net::LoadgenReport report = RunLoadgenOk(loadgen);
  running.thread.join();
  ASSERT_OK(running.result);

  EXPECT_EQ(report.meters_ok, kMeters);
  EXPECT_EQ(report.meters_failed, 0u);
  // Two sockets carried all six sessions.
  EXPECT_EQ(report.connections_opened, 2u);
  ScopedThreadRole owner(running.server->role());
  const net::IngestCounters counters = running.server->counters();
  EXPECT_EQ(counters.sessions_accepted, 2u);
  EXPECT_EQ(counters.sessions_completed, kMeters);
  // Completed keep-alive conversations are clean ends, not drops.
  EXPECT_EQ(counters.sessions_dropped, 0u);
  ExpectDirsBitIdentical(dir + "/offline", dir + "/online");
}

// SIGUSR1 path (the handler calls exactly RequestStatsDump): every shard
// snapshots its own counters and the last one to publish emits a single
// aggregated JSON blob.
TEST(NetIngestTest, StatsDumpAggregatesEveryShard) {
  std::string dir = MakeFleetDir("net_ingest_stats");
  const std::string cer = dir + "/meters.cer";

  std::ostringstream stats;
  net::IngestServerOptions server_options = ServerOptions(dir + "/online");
  server_options.threads = 3;
  RunningServer running;
  running.StartWithStats(std::move(server_options), &stats);
  ASSERT_NE(running.server, nullptr);

  net::LoadgenReport report =
      RunLoadgenOk(LoadgenOptions(running.server->port(), cer));
  EXPECT_EQ(report.meters_ok, kMeters);

  running.server->RequestStatsDump();
  for (int i = 0; i < 500 && running.server->stats_dumps() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(running.server->stats_dumps(), 1u);
  running.DrainAndJoin();
  ASSERT_OK(running.result);

  const std::string blob = stats.str();
  EXPECT_NE(blob.find("\"shards\": ["), std::string::npos) << blob;
  EXPECT_NE(blob.find("\"total\":"), std::string::npos) << blob;
  // Three shard objects plus the total, each with the full counter set.
  size_t occurrences = 0;
  for (size_t pos = blob.find("\"sessions_accepted\"");
       pos != std::string::npos;
       pos = blob.find("\"sessions_accepted\"", pos + 1)) {
    ++occurrences;
  }
  EXPECT_EQ(occurrences, 4u) << blob;
}

// Fabricates the on-disk signature of a --threads N daemon killed before
// Finalize: a partial single-log run is re-split so the main manifest
// holds one record and per-shard append logs hold the rest (one of them
// torn mid-append). Leaves 3 households durably checkpointed.
void FabricateShardedCrash(const std::string& online,
                           const std::string& cer) {
  net::IngestServerOptions server_options = ServerOptions(online);
  server_options.exit_after_households = 3;
  RunningServer running;
  running.Start(std::move(server_options));
  ASSERT_NE(running.server, nullptr);
  net::LoadgenOptions loadgen = LoadgenOptions(running.server->port(), cer);
  loadgen.concurrency = 1;  // deterministic: meters land in name order
  loadgen.max_attempts = 1;
  Result<net::LoadgenReport> report = net::RunLoadgen(loadgen);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  running.thread.join();
  ASSERT_OK(running.result);

  Result<ManifestContents> manifest =
      LoadFleetManifest(online + "/fleet.manifest");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest->reports.size(), 3u);
  // Main manifest keeps only the first record; the other two move into
  // shard logs, as if two shards had checkpointed them when the daemon
  // died. Shard 2's log is empty; shard 3's has a torn trailing append.
  std::ofstream(online + "/fleet.manifest", std::ios::binary)
      << BuildManifestLog({manifest->reports[0]});
  std::ofstream(online + "/" + net::ShardManifestFile(1), std::ios::binary)
      << BuildManifestLog({manifest->reports[1]});
  std::ofstream(online + "/" + net::ShardManifestFile(2), std::ios::binary)
      << BuildManifestLog({});
  std::ofstream(online + "/" + net::ShardManifestFile(3), std::ios::binary)
      << BuildManifestLog({manifest->reports[2]}) << "{\"name\":\"met";
}

// Kill-and-resume at --threads 4, sink-level recovery: Open(resume) unions
// the leftover shard logs directly (no fsck pass) and the restarted
// sharded daemon converges to the clean-run archive.
TEST(NetIngestTest, KilledShardedRunResumesDirectlyAndConverges) {
  std::string dir = MakeFleetDir("net_ingest_sharded_kill");
  const std::string cer = dir + "/meters.cer";
  EncodeFleetOffline(cer, dir + "/offline");
  const std::string online = dir + "/online";
  FabricateShardedCrash(online, cer);

  net::IngestServerOptions server_options = ServerOptions(online);
  server_options.threads = 4;
  server_options.resume = true;
  server_options.exit_after_households = kMeters;
  RunningServer running;
  running.Start(std::move(server_options));
  ASSERT_NE(running.server, nullptr);
  net::LoadgenReport report =
      RunLoadgenOk(LoadgenOptions(running.server->port(), cer));
  running.thread.join();
  ASSERT_OK(running.result);
  EXPECT_EQ(report.meters_ok, kMeters);
  // The three checkpointed households were carried, not re-persisted.
  ScopedThreadRole owner(running.server->role());
  EXPECT_EQ(running.server->counters().households_persisted, kMeters - 3);

  EXPECT_FALSE(std::filesystem::exists(online + "/" +
                                       net::ShardManifestFile(1)));
  ExpectDirsBitIdentical(dir + "/offline", online);
}

// Kill-and-resume via fsck: --repair unions the shard logs into the main
// manifest (torn tails contribute their valid prefix), removes them, and
// grades the archive clean on the second pass.
TEST(NetIngestTest, FsckMergesLeftoverShardLogs) {
  std::string dir = MakeFleetDir("net_ingest_sharded_fsck");
  const std::string cer = dir + "/meters.cer";
  EncodeFleetOffline(cer, dir + "/offline");
  const std::string online = dir + "/online";
  FabricateShardedCrash(online, cer);

  {
    std::ostringstream out, err;
    EXPECT_EQ(cli::RunCliExitCode(
                  {"fsck", "--dir", online, "--repair", "true"}, out, err),
              1)
        << out.str() << err.str();
    EXPECT_NE(out.str().find("shard_manifest"), std::string::npos)
        << out.str();
    std::ostringstream out2, err2;
    EXPECT_EQ(cli::RunCliExitCode({"fsck", "--dir", online}, out2, err2), 0)
        << out2.str() << err2.str();
  }
  for (int shard = 1; shard <= 3; ++shard) {
    EXPECT_FALSE(std::filesystem::exists(
        online + "/" + net::ShardManifestFile(shard)));
  }
  Result<ManifestContents> merged =
      LoadFleetManifest(online + "/fleet.manifest");
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->reports.size(), 3u);

  // A resumed sharded daemon finishes the fleet from the merged manifest.
  net::IngestServerOptions server_options = ServerOptions(online);
  server_options.threads = 4;
  server_options.resume = true;
  server_options.exit_after_households = kMeters;
  RunningServer running;
  running.Start(std::move(server_options));
  ASSERT_NE(running.server, nullptr);
  net::LoadgenReport report =
      RunLoadgenOk(LoadgenOptions(running.server->port(), cer));
  running.thread.join();
  ASSERT_OK(running.result);
  EXPECT_EQ(report.meters_ok, kMeters);
  ExpectDirsBitIdentical(dir + "/offline", online);
}

// Shard count for the randomized soak below: the storm and the recovery
// both run against a sharded server so every fault seam also fires across
// the handoff / per-shard-manifest paths. SMETER_SOAK_THREADS overrides
// (CI pins it to 4 explicitly; 1 reproduces the single-loop storm).
int SoakThreads() {
  if (const char* env = std::getenv("SMETER_SOAK_THREADS")) {
    int parsed = std::atoi(env);
    if (parsed >= 1 && parsed <= 64) return parsed;
  }
  return 4;
}

// Seeded soak: a randomized storm of connection drops, refused tables,
// server I/O failures, and silent bit flips on archive writes — then
// repair + resume + reconnect must still converge. CI sweeps
// SMETER_FAULT_SEED.
TEST(NetIngestSoakTest, RandomizedFaultsThenRepairResumeConverge) {
  uint64_t seed = 1;
  if (const char* env = std::getenv("SMETER_FAULT_SEED")) {
    uint64_t parsed = std::strtoull(env, nullptr, 10);
    if (parsed != 0) seed = parsed;
  }
  SCOPED_TRACE("SMETER_FAULT_SEED=" + std::to_string(seed));
  std::string dir =
      MakeFleetDir("net_ingest_soak_" + std::to_string(seed));
  const std::string cer = dir + "/meters.cer";
  EncodeFleetOffline(cer, dir + "/offline");
  const std::string online = dir + "/online";

  // Storm phase: any per-meter outcome is a legal crash signature; the
  // daemon itself must survive and drain cleanly.
  {
    net::IngestServerOptions server_options = ServerOptions(online);
    server_options.threads = SoakThreads();
    RunningServer running;
    running.Start(std::move(server_options));
    ASSERT_NE(running.server, nullptr);
    net::LoadgenOptions loadgen =
        LoadgenOptions(running.server->port(), cer);
    loadgen.max_attempts = 2;
    loadgen.io_timeout_ms = 2'000;
    {
      fault::ScopedFaultPlan plan(
          {fault::FaultRule::FailWithProbability("loadgen.drop", 0.05),
           fault::FaultRule::FailWithProbability("net.read", 0.02),
           fault::FaultRule::FailWithProbability("net.write", 0.02),
           fault::FaultRule::FailWithProbability("session.table", 0.1),
           fault::FaultRule::FailWithProbability("file.write", 0.05),
           fault::FaultRule::CorruptBytesWithProbability("io.write", 3,
                                                         0.1)},
          seed);
      Result<net::LoadgenReport> report = net::RunLoadgen(loadgen);
      EXPECT_TRUE(report.ok()) << report.status().ToString();
    }
    running.DrainAndJoin();
    ASSERT_OK(running.result);
  }

  // Repair must converge: one --repair pass, then a clean bill.
  {
    std::ostringstream out, err;
    int code = cli::RunCliExitCode(
        {"fsck", "--dir", online, "--repair", "true"}, out, err);
    EXPECT_NE(code, 4) << out.str() << err.str();
    std::ostringstream out2, err2;
    EXPECT_EQ(cli::RunCliExitCode({"fsck", "--dir", online}, out2, err2), 0)
        << out2.str() << err2.str();
  }

  // Recovery: resume + full reconnect, no faults — sharded too, so the
  // resume path unions whatever per-shard logs the storm left behind.
  {
    net::IngestServerOptions server_options = ServerOptions(online);
    server_options.threads = SoakThreads();
    server_options.resume = true;
    server_options.exit_after_households = kMeters;
    RunningServer running;
    running.Start(std::move(server_options));
    ASSERT_NE(running.server, nullptr);
    net::LoadgenReport report =
        RunLoadgenOk(LoadgenOptions(running.server->port(), cer));
    running.thread.join();
    ASSERT_OK(running.result);
    EXPECT_EQ(report.meters_ok, kMeters);
  }

  ExpectDirsBitIdentical(dir + "/offline", online);
}

// ---------------------------------------------------------------------------
// Overload protection & graceful degradation (PR 8). The loadgen client is
// deliberately well-behaved, so the drills below also need raw peers that
// are not: sockets that hold admission slots, go silent, or refuse to
// drain their acks.

// Minimal blocking loopback client. `rcvbuf_bytes` (set before connect so
// it binds the negotiated window) shrinks the kernel's receive capacity,
// which is what makes the write-stall deadline reachable fast.
int DialLoopback(uint16_t port, int rcvbuf_bytes = 0) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (rcvbuf_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                 sizeof(rcvbuf_bytes));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAllBytes(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Reads (and discards) until the peer closes. True when EOF or a reset
// arrived within `timeout_ms`.
bool DrainUntilPeerClose(int fd, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  char buf[4096];
  for (;;) {
    const auto remain = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remain.count() <= 0) return false;
    pollfd p{fd, POLLIN, 0};
    const int rc = ::poll(&p, 1, static_cast<int>(remain.count()));
    if (rc < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (rc == 0) return false;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) return true;
    if (n < 0 && errno != EINTR && errno != EAGAIN) return true;  // reset
  }
}

// NOTE on observing the write-stall drop from the client side: a peer
// whose receive window is zero (the whole point of the jam) can never see
// the server's FIN without reading — the FIN queues behind data the
// window won't admit. So the drills below keep the jam up well past the
// deadline, then switch to draining; the buffered pongs arrive, then EOF.

std::string HelloBytes(const std::string& meter) {
  net::HelloPayload hello;
  hello.meter_id = meter;
  return net::EncodeFrame(net::MakeHello(hello));
}

// A queryd on its own thread over `store_dir`: the overload drills also
// drive it, since it runs on the same server core as ingestd's shards.
struct RunningQueryd {
  std::unique_ptr<net::QueryServer> server;
  std::thread thread;
  Status result;

  RunningQueryd() = default;
  RunningQueryd(const RunningQueryd&) = delete;
  RunningQueryd& operator=(const RunningQueryd&) = delete;

  void Start(const std::string& store_dir, int64_t idle_timeout_ms,
             int64_t drain_grace_ms) {
    net::QueryServerOptions options;
    options.store_dir = store_dir;
    options.idle_timeout_ms = idle_timeout_ms;
    options.drain_grace_ms = drain_grace_ms;
    auto created = net::QueryServer::Create(std::move(options));
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    if (!created.ok()) return;
    server = std::move(created.value());
    thread = std::thread([this] { result = server->Run(); });
  }

  void DrainAndJoin() {
    if (!thread.joinable()) return;
    server->RequestDrain();
    thread.join();
  }

  ~RunningQueryd() { DrainAndJoin(); }
};

// Completes a QUERY_HELLO on a raw socket, so the peer is a live session
// rather than a connection still waiting in the accept backlog.
bool QueryHandshake(int fd) {
  net::QueryHelloPayload hello;
  hello.protocol_version = net::kQueryProtocolVersion;
  if (!SendAllBytes(fd, net::EncodeFrame(net::MakeQueryHello(hello)))) {
    return false;
  }
  char ack[64];
  pollfd p{fd, POLLIN, 0};
  return ::poll(&p, 1, 10'000) > 0 && ::recv(fd, ack, sizeof(ack), 0) > 0;
}

// A syntactically valid meter id hash-pinned to `shard` of `shards`.
std::string MeterPinnedTo(int shard, int shards, const std::string& prefix) {
  for (int i = 0; i < 10'000; ++i) {
    std::string name = prefix + std::to_string(i);
    if (net::ShardForMeter(name, shards) == shard) return name;
  }
  ADD_FAILURE() << "no meter id pinned to shard " << shard;
  return prefix + "0";
}

// Admission control: with the whole connection budget held by parked
// peers, every loadgen connect is shed with an accept-time THROTTLE; once
// the slots free, the same fleet retries through and converges.
TEST(NetOverloadTest, AdmissionBudgetShedsFloodAndFreedSlotsAdmit) {
  std::string dir = MakeFleetDir("net_overload_admission");
  const std::string cer = dir + "/meters.cer";
  EncodeFleetOffline(cer, dir + "/offline");

  net::IngestServerOptions server_options = ServerOptions(dir + "/online");
  server_options.max_connections = 2;
  server_options.idle_timeout_ms = 0;  // the parked peers must survive
  server_options.throttle_retry_ms = 50;
  RunningServer running;
  running.Start(std::move(server_options));
  ASSERT_NE(running.server, nullptr);

  // Two parked connections exhaust the budget without ever speaking.
  int parked_a = DialLoopback(running.server->port());
  int parked_b = DialLoopback(running.server->port());
  ASSERT_GE(parked_a, 0);
  ASSERT_GE(parked_b, 0);

  // Phase 1: single attempts, budget full -> every meter is refused with a
  // THROTTLE(admission) frame the client can account for.
  net::LoadgenOptions loadgen = LoadgenOptions(running.server->port(), cer);
  loadgen.max_attempts = 1;
  net::LoadgenReport shed = RunLoadgenOk(loadgen);
  EXPECT_EQ(shed.meters_ok, 0u);
  EXPECT_EQ(shed.meters_failed, kMeters);
  EXPECT_EQ(shed.throttled, kMeters);

  // Phase 2: slots freed, retries with jittered backoff land the fleet.
  ::close(parked_a);
  ::close(parked_b);
  loadgen.max_attempts = 5;
  loadgen.backoff.base_ms = 20;
  loadgen.backoff.cap_ms = 300;
  net::LoadgenReport landed = RunLoadgenOk(loadgen);
  EXPECT_EQ(landed.meters_ok, kMeters);

  running.DrainAndJoin();
  ASSERT_OK(running.result);
  ScopedThreadRole owner(running.server->role());
  const net::IngestCounters counters = running.server->counters();
  EXPECT_GE(counters.connections_shed, kMeters);
  EXPECT_GE(counters.throttles_sent, kMeters);
  EXPECT_EQ(counters.households_persisted, kMeters);
  ExpectDirsBitIdentical(dir + "/offline", dir + "/online");
}

// Per-meter token bucket: the first session per meter spends the burst
// token; an immediate fleet-wide re-upload is pushed back with
// THROTTLE(rate) and a refill-derived retry hint instead of being served.
TEST(NetOverloadTest, RateLimitThrottlesImmediateRepeatSessions) {
  std::string dir = MakeFleetDir("net_overload_rate");
  const std::string cer = dir + "/meters.cer";
  EncodeFleetOffline(cer, dir + "/offline");

  net::IngestServerOptions server_options = ServerOptions(dir + "/online");
  // 1 token per 5 s: even a slow sanitizer run cannot refill between the
  // first upload and the immediate re-upload.
  server_options.rate_limit = 0.2;
  RunningServer running;
  running.Start(std::move(server_options));
  ASSERT_NE(running.server, nullptr);

  net::LoadgenOptions loadgen = LoadgenOptions(running.server->port(), cer);
  loadgen.max_attempts = 1;
  net::LoadgenReport first = RunLoadgenOk(loadgen);
  EXPECT_EQ(first.meters_ok, kMeters);
  EXPECT_EQ(first.throttled, 0u);

  net::LoadgenReport second = RunLoadgenOk(loadgen);
  EXPECT_EQ(second.meters_ok, 0u);
  EXPECT_EQ(second.meters_failed, kMeters);
  EXPECT_EQ(second.throttled, kMeters);

  running.DrainAndJoin();
  ASSERT_OK(running.result);
  ScopedThreadRole owner(running.server->role());
  const net::IngestCounters counters = running.server->counters();
  EXPECT_GE(counters.rate_limited, kMeters);
  EXPECT_GE(counters.throttles_sent, kMeters);
  // The throttled re-uploads changed nothing on disk.
  EXPECT_EQ(counters.households_persisted, kMeters);
  ExpectDirsBitIdentical(dir + "/offline", dir + "/online");
}

// Ingest-memory budget: a budget no session can fit under pushes back with
// THROTTLE(memory) mid-stream and drops the connection (freeing its
// buffers); nothing is persisted and the daemon stays healthy.
TEST(NetOverloadTest, MemoryBudgetThrottlesOversizedBacklog) {
  std::string dir = MakeFleetDir("net_overload_memory");
  const std::string cer = dir + "/meters.cer";

  net::IngestServerOptions server_options = ServerOptions(dir + "/online");
  server_options.memory_budget = 512;  // ~96 samples/meter = 1.5 KiB
  RunningServer running;
  running.Start(std::move(server_options));
  ASSERT_NE(running.server, nullptr);

  net::LoadgenOptions loadgen = LoadgenOptions(running.server->port(), cer);
  loadgen.max_attempts = 2;
  loadgen.concurrency = 2;
  loadgen.backoff.base_ms = 20;
  loadgen.backoff.cap_ms = 100;
  net::LoadgenReport report = RunLoadgenOk(loadgen);
  EXPECT_EQ(report.meters_ok, 0u);
  EXPECT_EQ(report.meters_failed, kMeters);
  EXPECT_GE(report.throttled, kMeters);

  running.DrainAndJoin();
  ASSERT_OK(running.result);
  ScopedThreadRole owner(running.server->role());
  const net::IngestCounters counters = running.server->counters();
  EXPECT_GE(counters.memory_throttled, kMeters);
  EXPECT_GE(counters.throttles_sent, kMeters);
  EXPECT_EQ(counters.households_persisted, 0u);
  // Every dropped connection returned its tracked bytes: the gauge is flat.
  EXPECT_EQ(counters.ingest_memory_bytes, 0u);
}

// Idle timeout on a sharded server: a peer that HELLOs onto a non-zero
// shard and goes silent is swept there, counted there, and the rest of the
// fleet is untouched.
TEST(NetOverloadTest, IdleTimeoutDropsSilentPeerOnItsHomeShard) {
  std::string dir = MakeFleetDir("net_overload_idle");
  const std::string cer = dir + "/meters.cer";
  EncodeFleetOffline(cer, dir + "/offline");

  net::IngestServerOptions server_options = ServerOptions(dir + "/online");
  server_options.threads = 2;
  server_options.idle_timeout_ms = 250;
  server_options.exit_after_households = kMeters;
  RunningServer running;
  running.Start(std::move(server_options));
  ASSERT_NE(running.server, nullptr);

  const std::string idler = MeterPinnedTo(1, 2, "idler_");
  int fd = DialLoopback(running.server->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAllBytes(fd, HelloBytes(idler)));
  // The HELLO peek re-homed the connection to shard 1; silence past the
  // deadline gets it swept (we see the hello ack, then EOF).
  EXPECT_TRUE(DrainUntilPeerClose(fd, 10'000));
  ::close(fd);

  net::LoadgenReport report =
      RunLoadgenOk(LoadgenOptions(running.server->port(), cer));
  running.thread.join();
  ASSERT_OK(running.result);
  EXPECT_EQ(report.meters_ok, kMeters);
  ScopedThreadRole owner(running.server->role());
  EXPECT_GE(running.server->shard_counters(1).idle_drops, 1u);
  ExpectDirsBitIdentical(dir + "/offline", dir + "/online");

  // queryd runs the same core sweep and drain: a silent peer is dropped as
  // idle, and a live session still open at drain is force-closed once the
  // grace runs out. Both closes are the server's own, so neither counts
  // as a dropped connection.
  RunCliOk({"store-build", "--archive", dir + "/offline", "--store",
            dir + "/store"});
  RunningQueryd queryd;
  queryd.Start(dir + "/store", /*idle_timeout_ms=*/250,
               /*drain_grace_ms=*/20);
  ASSERT_NE(queryd.server, nullptr);
  int silent = DialLoopback(queryd.server->port());
  ASSERT_GE(silent, 0);
  EXPECT_TRUE(DrainUntilPeerClose(silent, 10'000));
  ::close(silent);
  int lingering = DialLoopback(queryd.server->port());
  ASSERT_GE(lingering, 0);
  ASSERT_TRUE(QueryHandshake(lingering));
  queryd.DrainAndJoin();
  ASSERT_OK(queryd.result);
  EXPECT_TRUE(DrainUntilPeerClose(lingering, 10'000));
  ::close(lingering);
  ScopedThreadRole query_owner(queryd.server->role());
  const net::QueryCounters query = queryd.server->counters();
  EXPECT_EQ(query.connections_accepted, 2u);
  EXPECT_EQ(query.idle_drops, 1u);
  EXPECT_EQ(query.connections_dropped, 0u);
  EXPECT_EQ(query.connections_active, 0u);
}

// Write-stall deadline on a sharded server: a peer that floods PINGs and
// never drains the pongs jams its output buffer past the backpressure
// high-watermark; after write_stall_ms it is dropped on its home shard.
TEST(NetOverloadTest, WriteStallDeadlineDropsNonDrainingPeer) {
  std::string dir = MakeFleetDir("net_overload_stall");
  const std::string cer = dir + "/meters.cer";
  EncodeFleetOffline(cer, dir + "/offline");

  net::IngestServerOptions server_options = ServerOptions(dir + "/online");
  server_options.threads = 2;
  server_options.idle_timeout_ms = 0;  // isolate the stall deadline
  server_options.write_stall_ms = 250;
  server_options.high_watermark = 1024;
  server_options.sndbuf_bytes = 4096;  // small kernel buffer: jam fast
  server_options.exit_after_households = kMeters;
  RunningServer running;
  running.Start(std::move(server_options));
  ASSERT_NE(running.server, nullptr);

  const std::string staller = MeterPinnedTo(1, 2, "staller_");
  int fd = DialLoopback(running.server->port(), /*rcvbuf_bytes=*/2048);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAllBytes(fd, HelloBytes(staller)));
  // Consume the hello ack (the session is established on shard 1), then
  // stop reading forever and flood PINGs; the pongs back up through the
  // kernel buffers into BufferedFd and past the high-watermark.
  {
    char ack[64];
    pollfd p{fd, POLLIN, 0};
    ASSERT_GT(::poll(&p, 1, 10'000), 0);
    ASSERT_GT(::recv(fd, ack, sizeof(ack), 0), 0);
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ASSERT_EQ(::fcntl(fd, F_SETFL, flags | O_NONBLOCK), 0);
  std::string burst;
  for (int i = 0; i < 256; ++i) {
    burst += net::EncodeFrame(net::MakePing(static_cast<uint64_t>(i)));
  }
  for (int round = 0; round < 24; ++round) {  // ~100 KiB of pings max
    const ssize_t n = ::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL);
    if (n < 0) break;  // EAGAIN: both kernel directions are full — jammed
  }
  // Hold the jam far past write_stall_ms (sweeps run every 125 ms), then
  // drain: the server closed long ago, so the leftover pongs end in EOF.
  std::this_thread::sleep_for(std::chrono::milliseconds(2'000));
  EXPECT_TRUE(DrainUntilPeerClose(fd, 10'000));
  ::close(fd);

  net::LoadgenReport report =
      RunLoadgenOk(LoadgenOptions(running.server->port(), cer));
  running.thread.join();
  ASSERT_OK(running.result);
  EXPECT_EQ(report.meters_ok, kMeters);
  ScopedThreadRole owner(running.server->role());
  EXPECT_GE(running.server->shard_counters(1).write_stall_drops, 1u);
  EXPECT_EQ(running.server->counters().idle_drops, 0u);
  ExpectDirsBitIdentical(dir + "/offline", dir + "/online");
}

// The EMFILE escape hatch: with the process fd limit exhausted, the
// acceptor burns its reserved fd to accept-and-refuse the backlog instead
// of wedging the edge-triggered listener; once the crunch clears, the
// fleet uploads normally.
TEST(NetOverloadTest, EmfileAcceptCrunchShedsBacklogViaReservedFd) {
  std::string dir = MakeFleetDir("net_overload_emfile");
  const std::string cer = dir + "/meters.cer";
  EncodeFleetOffline(cer, dir + "/offline");

  net::IngestServerOptions server_options = ServerOptions(dir + "/online");
  server_options.exit_after_households = kMeters;
  RunningServer running;
  running.Start(std::move(server_options));
  ASSERT_NE(running.server, nullptr);
  // queryd shares the acceptor and its hatch; it is started before the
  // crunch so its store, listener and reserve fd are already open.
  RunCliOk({"store-build", "--archive", dir + "/offline", "--store",
            dir + "/store"});
  RunningQueryd queryd;
  queryd.Start(dir + "/store", /*idle_timeout_ms=*/0,
               /*drain_grace_ms=*/500);
  ASSERT_NE(queryd.server, nullptr);

  // Clamp the soft fd limit a hair above current usage, then consume every
  // remaining slot but one — the client socket below takes that last one,
  // so the server's accept4 has nothing left and must hit EMFILE.
  size_t open_fds = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++open_fds;
  }
  rlimit old_limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &old_limit), 0);
  rlimit tight = old_limit;
  tight.rlim_cur = static_cast<rlim_t>(open_fds + 10);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  std::vector<int> fillers;
  for (;;) {
    const int filler = ::dup(0);
    if (filler < 0) break;
    fillers.push_back(filler);
  }
  ASSERT_FALSE(fillers.empty());
  ::close(fillers.back());
  fillers.pop_back();

  int fd = DialLoopback(running.server->port());
  ASSERT_GE(fd, 0);
  // The hatch accepts and refuses: THROTTLE (best effort) then close.
  EXPECT_TRUE(DrainUntilPeerClose(fd, 10'000));
  ::close(fd);
  // The same crunch against queryd. Refill the table first, so neither
  // the slot just freed nor one the ingest hatch has not re-taken yet is
  // left for queryd's accept; the client socket takes the only free one.
  for (;;) {
    const int filler = ::dup(0);
    if (filler < 0) break;
    fillers.push_back(filler);
  }
  ::close(fillers.back());
  fillers.pop_back();
  int query_fd = DialLoopback(queryd.server->port());
  ASSERT_GE(query_fd, 0);
  EXPECT_TRUE(DrainUntilPeerClose(query_fd, 10'000));
  ::close(query_fd);
  for (int filler : fillers) ::close(filler);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &old_limit), 0);

  net::LoadgenReport report =
      RunLoadgenOk(LoadgenOptions(running.server->port(), cer));
  running.thread.join();
  ASSERT_OK(running.result);
  EXPECT_EQ(report.meters_ok, kMeters);
  ScopedThreadRole owner(running.server->role());
  EXPECT_GE(running.server->counters().accepts_emfile, 1u);
  EXPECT_GE(running.server->counters().connections_shed, 1u);
  ExpectDirsBitIdentical(dir + "/offline", dir + "/online");

  queryd.DrainAndJoin();
  ASSERT_OK(queryd.result);
  ScopedThreadRole query_owner(queryd.server->role());
  EXPECT_EQ(queryd.server->counters().connections_shed, 1u);
  EXPECT_EQ(queryd.server->counters().connections_accepted, 0u);
  EXPECT_EQ(queryd.server->counters().connections_dropped, 0u);
}

// Disk exhaustion: ENOSPC on archive writes opens the circuit breaker
// (acks withheld, sessions pushed back with THROTTLE(disk)), the probe
// timer notices when space returns, and the retrying fleet then converges
// to the byte-identical archive.
TEST(NetOverloadTest, DiskFullPausesPersistsUntilProbeReopens) {
  std::string dir = MakeFleetDir("net_overload_enospc");
  const std::string cer = dir + "/meters.cer";
  EncodeFleetOffline(cer, dir + "/offline");

  net::IngestServerOptions server_options = ServerOptions(dir + "/online");
  server_options.probe_interval_ms = 25;
  server_options.throttle_retry_ms = 50;
  server_options.exit_after_households = kMeters;
  RunningServer running;
  running.Start(std::move(server_options));
  ASSERT_NE(running.server, nullptr);

  net::LoadgenOptions loadgen = LoadgenOptions(running.server->port(), cer);
  loadgen.max_attempts = 10;
  loadgen.backoff.base_ms = 25;
  loadgen.backoff.cap_ms = 400;
  net::LoadgenReport report;
  {
    // The first persist trips the breaker; probes then chew through the
    // injected window (8 failing writes) until the disk "has space" again.
    fault::ScopedFaultPlan plan({[] {
      fault::FaultRule rule = fault::FaultRule::FailCalls("file.write", 1, 8);
      rule.message = "No space left on device";
      return rule;
    }()});
    report = RunLoadgenOk(loadgen);
  }
  running.thread.join();
  ASSERT_OK(running.result);
  EXPECT_EQ(report.meters_ok, kMeters);
  EXPECT_GE(report.throttled, 1u);
  ScopedThreadRole owner(running.server->role());
  const net::IngestCounters counters = running.server->counters();
  EXPECT_GE(counters.circuit_opens, 1u);
  EXPECT_GE(counters.persists_paused, 1u);
  EXPECT_GE(counters.throttles_sent, 1u);
  EXPECT_EQ(counters.households_persisted, kMeters);
  ExpectDirsBitIdentical(dir + "/offline", dir + "/online");
}

// A daemon killed while paused on a full disk must leave a salvageable
// archive: fsck --repair grades and fixes what the interrupted Finalize
// left behind, and a --resume restart plus a fleet-wide reconnect
// converges bit-identically.
TEST(NetOverloadTest, KilledDuringDiskPauseConvergesViaFsckAndResume) {
  std::string dir = MakeFleetDir("net_overload_enospc_kill");
  const std::string cer = dir + "/meters.cer";
  EncodeFleetOffline(cer, dir + "/offline");
  const std::string online = dir + "/online";

  {
    net::IngestServerOptions server_options = ServerOptions(online);
    // Probes effectively never fire: the pause outlives the daemon.
    server_options.probe_interval_ms = 600'000;
    RunningServer running;
    running.Start(std::move(server_options));
    ASSERT_NE(running.server, nullptr);

    // Calls 1-2 are meter_1000's table+symbols; call 3 (the next meter's
    // first write) hits the full disk and the circuit stays open forever.
    fault::ScopedFaultPlan plan({[] {
      fault::FaultRule rule = fault::FaultRule::FailCalls("file.write", 3);
      rule.message = "No space left on device";
      return rule;
    }()});
    net::LoadgenOptions loadgen = LoadgenOptions(running.server->port(), cer);
    loadgen.concurrency = 1;  // deterministic: meter_1000 lands first
    loadgen.max_attempts = 1;
    Result<net::LoadgenReport> report = net::RunLoadgen(loadgen);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->meters_ok, 1u);
    EXPECT_EQ(report->meters_failed, kMeters - 1);
    EXPECT_GE(report->throttled, kMeters - 1);

    // The "kill": drain while the disk is still full. Finalize cannot
    // write the manifest, so Run() itself reports the failure.
    running.DrainAndJoin();
    EXPECT_FALSE(running.result.ok());
    ScopedThreadRole owner(running.server->role());
    EXPECT_GE(running.server->counters().circuit_opens, 1u);
    EXPECT_GE(running.server->counters().persists_paused, 1u);
    EXPECT_EQ(running.server->counters().households_persisted, 1u);
  }

  // Space returns (the plan died with the scope). Repair, then resume.
  {
    std::ostringstream out, err;
    const int code = cli::RunCliExitCode(
        {"fsck", "--dir", online, "--repair", "true"}, out, err);
    EXPECT_NE(code, 4) << out.str() << err.str();
    std::ostringstream out2, err2;
    EXPECT_EQ(cli::RunCliExitCode({"fsck", "--dir", online}, out2, err2), 0)
        << out2.str() << err2.str();
  }
  {
    net::IngestServerOptions server_options = ServerOptions(online);
    server_options.resume = true;
    server_options.exit_after_households = kMeters;
    RunningServer running;
    running.Start(std::move(server_options));
    ASSERT_NE(running.server, nullptr);
    net::LoadgenReport report =
        RunLoadgenOk(LoadgenOptions(running.server->port(), cer));
    running.thread.join();
    ASSERT_OK(running.result);
    EXPECT_EQ(report.meters_ok, kMeters);
    // meter_1000 carried as a duplicate; the rest re-persisted.
    ScopedThreadRole owner(running.server->role());
    EXPECT_EQ(running.server->counters().households_persisted, kMeters - 1);
  }
  ExpectDirsBitIdentical(dir + "/offline", online);
}

// The chaos soak: a flooding fleet, parked and non-draining peers, a full
// disk, and random connection drops — all at once, on a sharded server
// with every overload knob engaged. Admitted sessions must converge
// bit-identically, every degradation mechanism must demonstrably fire,
// and the SIGUSR1 dump must carry all of the new counters. CI sweeps
// SMETER_FAULT_SEED over this test under ASan.
TEST(NetOverloadSoakTest, FloodEnospcSlowClientsConvergeBitIdentical) {
  uint64_t seed = 1;
  if (const char* env = std::getenv("SMETER_FAULT_SEED")) {
    uint64_t parsed = std::strtoull(env, nullptr, 10);
    if (parsed != 0) seed = parsed;
  }
  SCOPED_TRACE("SMETER_FAULT_SEED=" + std::to_string(seed));
  std::string dir =
      MakeFleetDir("net_overload_soak_" + std::to_string(seed));
  const std::string cer = dir + "/meters.cer";
  EncodeFleetOffline(cer, dir + "/offline");
  const std::string online = dir + "/online";

  std::ostringstream stats;
  net::IngestServerOptions server_options = ServerOptions(online);
  server_options.threads = 2;
  server_options.max_connections = 4;
  server_options.memory_budget = 4096;
  server_options.rate_limit = 0.5;  // refused retries come back in < 2 s
  server_options.idle_timeout_ms = 350;
  server_options.write_stall_ms = 250;
  server_options.high_watermark = 2048;
  server_options.sndbuf_bytes = 4096;
  server_options.probe_interval_ms = 25;
  server_options.throttle_retry_ms = 100;
  RunningServer running;
  running.StartWithStats(std::move(server_options), &stats);
  ASSERT_NE(running.server, nullptr);
  const uint16_t port = running.server->port();

  // Two slow clients occupy half the admission budget. The idler HELLOs
  // and goes silent (idle sweep); the staller floods PINGs and never
  // drains the pongs (write-stall sweep). While the staller lives, its
  // pong backlog alone holds the memory gauge over budget, so the first
  // loadgen batches are memory-throttled too.
  int idler = DialLoopback(port);
  ASSERT_GE(idler, 0);
  ASSERT_TRUE(SendAllBytes(idler, HelloBytes(MeterPinnedTo(1, 2, "idler_"))));
  int staller = DialLoopback(port, /*rcvbuf_bytes=*/2048);
  ASSERT_GE(staller, 0);
  ASSERT_TRUE(
      SendAllBytes(staller, HelloBytes(MeterPinnedTo(1, 2, "staller_"))));
  {
    char ack[64];
    pollfd p{staller, POLLIN, 0};
    ASSERT_GT(::poll(&p, 1, 10'000), 0);
    ASSERT_GT(::recv(staller, ack, sizeof(ack), 0), 0);
  }
  const int flags = ::fcntl(staller, F_GETFL, 0);
  ASSERT_EQ(::fcntl(staller, F_SETFL, flags | O_NONBLOCK), 0);
  std::string burst;
  for (int i = 0; i < 256; ++i) {
    burst += net::EncodeFrame(net::MakePing(static_cast<uint64_t>(i)));
  }
  for (int round = 0; round < 24; ++round) {
    if (::send(staller, burst.data(), burst.size(), MSG_NOSIGNAL) < 0) break;
  }

  // The storm: the fleet floods in over the remaining slots while the
  // first 6 archive writes hit a full disk and the seeded seam drops
  // random client sockets mid-upload.
  {
    fault::ScopedFaultPlan plan(
        {[] {
           fault::FaultRule rule =
               fault::FaultRule::FailCalls("file.write", 1, 6);
           rule.message = "No space left on device";
           return rule;
         }(),
         fault::FaultRule::FailWithProbability("loadgen.drop", 0.05)},
        seed);
    net::LoadgenOptions loadgen = LoadgenOptions(port, cer);
    loadgen.concurrency = 6;
    loadgen.max_attempts = 16;
    loadgen.io_timeout_ms = 2'000;
    loadgen.backoff.base_ms = 25;
    loadgen.backoff.cap_ms = 500;
    net::LoadgenReport report = RunLoadgenOk(loadgen);
    EXPECT_EQ(report.meters_ok, kMeters);
    EXPECT_GE(report.throttled, 1u);
  }

  // Both slow clients were swept long ago (their deadlines are far below
  // the fleet's upload time); draining surfaces the deferred EOFs.
  EXPECT_TRUE(DrainUntilPeerClose(staller, 10'000));
  EXPECT_TRUE(DrainUntilPeerClose(idler, 10'000));
  ::close(staller);
  ::close(idler);

  // Deterministic admission overflow: five fresh connections race for four
  // slots, so exactly one is shed — watch for its close.
  {
    std::vector<int> conns;
    for (int i = 0; i < 5; ++i) {
      const int fd = DialLoopback(port);
      ASSERT_GE(fd, 0);
      conns.push_back(fd);
    }
    bool one_shed = false;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
    while (!one_shed && std::chrono::steady_clock::now() < deadline) {
      for (int fd : conns) {
        pollfd p{fd, POLLIN, 0};
        if (::poll(&p, 1, 50) > 0 &&
            (p.revents & (POLLIN | POLLERR | POLLHUP))) {
          char buf[64];
          const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
          if (n >= 0) {
            one_shed = true;  // THROTTLE bytes or EOF: this one was refused
            break;
          }
        }
      }
    }
    EXPECT_TRUE(one_shed);
    for (int fd : conns) ::close(fd);
  }

  // The SIGUSR1 dump carries every overload counter.
  running.server->RequestStatsDump();
  for (int i = 0; i < 500 && running.server->stats_dumps() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(running.server->stats_dumps(), 1u);
  running.DrainAndJoin();
  ASSERT_OK(running.result);

  const std::string blob = stats.str();
  for (const char* key :
       {"connections_shed", "accepts_emfile", "throttles_sent",
        "rate_limited", "memory_throttled", "idle_drops",
        "write_stall_drops", "persists_paused", "circuit_opens",
        "ingest_memory_bytes"}) {
    EXPECT_NE(blob.find("\"" + std::string(key) + "\""), std::string::npos)
        << "missing counter in stats dump: " << key << "\n"
        << blob;
  }

  // Every engineered degradation actually fired.
  ScopedThreadRole owner(running.server->role());
  const net::IngestCounters counters = running.server->counters();
  EXPECT_GE(counters.connections_shed, 1u);
  EXPECT_GE(counters.throttles_sent, 1u);
  EXPECT_GE(counters.rate_limited, 1u);
  EXPECT_GE(counters.memory_throttled, 1u);
  EXPECT_GE(counters.idle_drops, 1u);
  EXPECT_GE(counters.write_stall_drops, 1u);
  EXPECT_GE(counters.persists_paused, 1u);
  EXPECT_GE(counters.circuit_opens, 1u);
  EXPECT_EQ(counters.households_persisted, kMeters);

  // And none of it dented durability: clean fsck, byte-identical archive.
  std::ostringstream out, err;
  EXPECT_EQ(cli::RunCliExitCode({"fsck", "--dir", online}, out, err), 0)
      << out.str() << err.str();
  ExpectDirsBitIdentical(dir + "/offline", online);
}

}  // namespace
}  // namespace smeter
