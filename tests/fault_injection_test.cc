// Fault-injection matrix (PR 6): every registered failpoint site is armed —
// with an injected error and with a crash — under every maintenance
// strategy, while a chaos-style workload runs against an in-memory
// reference model. The invariant under test is "error <=> op excluded from
// the model": an operation that returned a Status error must have no
// surviving effect (rolled back / dropped from the WAL), and an operation
// that returned OK must survive checkpoint + crash + recovery bit-for-bit.
// Around the matrix sit the robustness state-machine tests: transient
// faults self-heal inside the retry budget, retry exhaustion degrades the
// dataset to read-only until TakeBackgroundError() clears it, delays charge
// the modeled clock, and an armed injector that never fires changes nothing.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>

#include "common/random.h"
#include "core/dataset.h"

namespace auxlsm {
namespace {

constexpr uint64_t kKeySpace = 600;
constexpr uint64_t kUserSpace = 40;

EnvOptions TestEnv(FaultInjector* fault) {
  EnvOptions o;
  o.page_size = 1024;
  o.cache_pages = 1 << 14;
  o.disk_profile = DiskProfile::Null();
  o.fault_injector = fault;
  return o;
}

DatasetOptions Opts(MaintenanceStrategy s, FaultInjector* fault) {
  DatasetOptions o;
  o.strategy = s;
  o.mem_budget_bytes = 48 << 10;  // frequent flushes and merges
  o.max_mergeable_bytes = 1 << 20;
  if (s == MaintenanceStrategy::kValidation) o.merge_repair = true;
  o.fault_injector = fault;
  o.maintenance_retry_limit = 2;
  o.retry_backoff_us = 10;
  // The matrix runs with the tuple cache on so the cache.tuple_* sites are
  // genuinely consulted; a faulted cache must degrade to misses, never
  // change any query outcome.
  o.tuple_cache_bytes = 256 << 10;
  return o;
}

// The engine modes: the serial write path, the multi-writer pipeline with
// coupled merges, and the pipeline with decoupled merge queues.
struct EngineMode {
  const char* name;
  size_t writer_threads;
  size_t merge_queue_depth;
};

const EngineMode kEngineModes[] = {
    {"serial", 1, 0},
    {"pipeline", 4, 0},
    {"decoupled", 4, 4},
};

void PrintTo(const EngineMode& mode, std::ostream* os) { *os << mode.name; }

void ApplyMode(const EngineMode& mode, DatasetOptions* o) {
  o->writer_threads = mode.writer_threads;
  o->merge_queue_depth = mode.merge_queue_depth;
}

TweetRecord MakeTweet(uint64_t id, uint64_t user, uint64_t time) {
  TweetRecord r;
  r.id = id;
  r.user_id = user;
  r.location = "GA";
  r.creation_time = time;
  r.message = std::string(40 + id % 30, 'z');
  return r;
}

// Post-recovery validation: record count, sampled point queries, and one
// secondary range query against the committed-ops model.
void ValidateRecovered(Dataset* ds,
                       const std::map<uint64_t, TweetRecord>& model,
                       const std::string& trace) {
  ASSERT_EQ(ds->num_records(), model.size()) << trace;
  for (uint64_t id = 1; id <= kKeySpace; id += 7) {
    TweetRecord got;
    const Status st = ds->GetById(id, &got);
    auto it = model.find(id);
    if (it != model.end()) {
      ASSERT_TRUE(st.ok()) << trace << " id " << id << ": " << st.ToString();
      EXPECT_EQ(got.user_id, it->second.user_id) << trace << " id " << id;
      EXPECT_EQ(got.creation_time, it->second.creation_time)
          << trace << " id " << id;
    } else {
      EXPECT_TRUE(st.IsNotFound()) << trace << " id " << id;
    }
  }
  std::set<uint64_t> expected;
  for (const auto& [id, r] : model) {
    if (r.user_id <= 4) expected.insert(id);
  }
  SecondaryQueryOptions q;
  QueryResult res;
  ASSERT_TRUE(ds->QueryUserRange(0, 4, q, &res).ok()) << trace;
  std::set<uint64_t> got;
  for (const auto& r : res.records) got.insert(r.id);
  EXPECT_EQ(got, expected) << trace;
}

class FaultMatrixTest : public ::testing::TestWithParam<MaintenanceStrategy> {
 protected:
  // One matrix cell: warm up un-faulted, arm `site` with `spec`, run a
  // chaos workload tolerating injected errors (every errored op is excluded
  // from the model), then crash-recover and validate the committed state.
  void RunCase(const char* site, const FaultSpec& spec) {
    const std::string trace =
        std::string("site=") + site + " strategy=" +
        StrategyName(GetParam());
    SCOPED_TRACE(trace);
    const uint64_t salt = std::hash<std::string>{}(site) % 1000;
    FaultInjector fault(7 + salt);
    Env env(TestEnv(&fault));
    Wal durable_wal;
    std::map<uint64_t, TweetRecord> model;
    Random rng(1234 + salt);
    uint64_t time = 0;
    DatasetCatalog catalog;
    {
      Dataset ds(&env, Opts(GetParam(), &fault));
      // Warm up with the injector quiet so disk components (and bitmaps /
      // deleted-key trees) exist before the site arms.
      for (int step = 0; step < 250; step++) {
        const uint64_t id = 1 + rng.Uniform(kKeySpace);
        const TweetRecord r = MakeTweet(id, rng.Uniform(kUserSpace), ++time);
        ASSERT_TRUE(ds.Upsert(r).ok());
        model[id] = r;
      }
      ASSERT_TRUE(ds.FlushAll().ok());

      fault.Arm(site, spec);
      for (int step = 0; step < 450 && !fault.crashed(); step++) {
        const uint64_t id = 1 + rng.Uniform(kKeySpace);
        const double dice = rng.NextDouble();
        Status st;
        if (dice < 0.60) {
          const TweetRecord r = MakeTweet(id, rng.Uniform(kUserSpace), ++time);
          st = ds.Upsert(r);
          if (st.ok()) model[id] = r;
        } else if (dice < 0.80) {
          st = ds.Delete(id);
          if (st.ok()) model.erase(id);
        } else if (dice < 0.88) {
          bool inserted = false;
          const TweetRecord r = MakeTweet(id, rng.Uniform(kUserSpace), ++time);
          st = ds.Insert(r, &inserted);
          if (st.ok() && inserted) model[id] = r;
        } else if (dice < 0.94) {
          // Reads interleaved with the faulted writes: a fired cache site
          // must degrade to a miss — never to a stale or ghost row.
          TweetRecord got;
          const Status rst = ds.GetById(id, &got);
          auto it = model.find(id);
          if (rst.ok() && it != model.end()) {
            EXPECT_EQ(got.user_id, it->second.user_id) << trace;
            EXPECT_EQ(got.creation_time, it->second.creation_time) << trace;
          } else if (rst.ok()) {
            ADD_FAILURE() << trace << ": ghost row for id " << id;
          } else if (rst.IsNotFound()) {
            EXPECT_TRUE(it == model.end()) << trace << " id " << id;
          }  // injected read errors are tolerated like any faulted op
        } else if (dice < 0.97) {
          // Maintenance calls may fail under injection; a failed flush or
          // merge never changes query-visible state.
          st = ds.FlushAll();
        } else {
          st = ds.MergeAllIndexes();
        }
        if (!st.ok()) {
          // Re-arm the pipeline: both sticky error classes (flush-cycle and
          // merge-queue) may be set after a degraded transition.
          ds.TakeBackgroundError();
          ds.TakeBackgroundError();
        }
      }

      // Crash point. The injector stops injecting (recovery begins); the
      // catalog models per-component metadata a real system keeps durable
      // as flushes/merges happen, and the WAL content as of the crash is
      // copied to the stand-in durable log device.
      fault.ResetCrash();
      fault.DisarmAll();
      catalog = ds.Checkpoint();
      for (const auto& r : ds.wal()->ReadFrom(kInvalidLsn)) {
        durable_wal.Append(r);
      }
    }

    RecoveryStats stats;
    auto recovered = Dataset::Recover(&env, &durable_wal, catalog,
                                      Opts(GetParam(), &fault), &stats);
    ASSERT_TRUE(recovered.ok()) << trace << ": "
                                << recovered.status().ToString();
    Dataset* ds = recovered->get();
    ValidateRecovered(ds, model, trace);

    // The recovered dataset must be fully usable: ingest, flush, read.
    EXPECT_EQ(ds->health(), DatasetHealth::kHealthy) << trace;
    for (int i = 0; i < 40; i++) {
      const uint64_t id = 1 + rng.Uniform(kKeySpace);
      const TweetRecord r = MakeTweet(id, rng.Uniform(kUserSpace), ++time);
      ASSERT_TRUE(ds->Upsert(r).ok()) << trace;
      model[id] = r;
    }
    ASSERT_TRUE(ds->FlushAll().ok()) << trace;
    ASSERT_EQ(ds->num_records(), model.size()) << trace;
  }
};

// An injected transient error at every site: op-level sites surface the
// error to the caller (op excluded from the model), maintenance sites are
// absorbed by the retry policy. Either way, recovery restores exactly the
// committed state.
TEST_P(FaultMatrixTest, InjectedErrorAtEverySiteRecoversCommittedState) {
  for (const char* site : failpoints::AllSites()) {
    RunCase(site, FaultSpec::ErrorNth(Status::IOError("injected io error"), 3));
    if (HasFatalFailure()) return;
  }
}

// A crash at every site: from the crash point on, appends drop and every
// storage touch fails; recovery from the surviving WAL + catalog must
// restore exactly the committed state.
TEST_P(FaultMatrixTest, CrashAtEverySiteRecoversCommittedState) {
  for (const char* site : failpoints::AllSites()) {
    RunCase(site, FaultSpec::CrashNth(5));
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, FaultMatrixTest,
    ::testing::Values(MaintenanceStrategy::kEager,
                      MaintenanceStrategy::kValidation,
                      MaintenanceStrategy::kMutableBitmap,
                      MaintenanceStrategy::kDeletedKeyBtree),
    [](const ::testing::TestParamInfo<MaintenanceStrategy>& info) {
      std::string name = StrategyName(info.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// A low-rate transient write fault on the page-append seam: every failure
// lands inside a retry-wrapped maintenance step, so with an adequate retry
// budget NO error ever surfaces to the workload and the dataset stays
// healthy. The MaintenanceStats counters must show the absorbed failures.
// Runs on every engine mode: each one must wrap every step in the retry.
class FaultSelfHealingTest : public ::testing::TestWithParam<EngineMode> {};

TEST_P(FaultSelfHealingTest, TransientWriteFaultsAbsorbedByRetries) {
  FaultInjector fault(99);
  Env env(TestEnv(&fault));
  DatasetOptions o = Opts(MaintenanceStrategy::kEager, &fault);
  ApplyMode(GetParam(), &o);
  o.maintenance_retry_limit = 6;
  Dataset ds(&env, o);
  std::map<uint64_t, TweetRecord> model;
  Random rng(4040);
  uint64_t time = 0;

  fault.Arm(failpoints::kEnvAppendPage,
            FaultSpec::Error(Status::IOError("transient write fault"), 0.01));
  // The fault stays armed through the final FlushAll, so every page the run
  // writes is consulted. Seed 99 first fires on the 120th page append; the
  // pipeline and decoupled modes coalesce flushes when their background
  // cycles run late, and at 1,500 ops a loaded host could write fewer pages
  // than that. 4,500 ops write 850-1,100 pages on every mode.
  for (int step = 0; step < 4500; step++) {
    const uint64_t id = 1 + rng.Uniform(kKeySpace);
    if (rng.Bernoulli(0.8)) {
      const TweetRecord r = MakeTweet(id, rng.Uniform(kUserSpace), ++time);
      ASSERT_TRUE(ds.Upsert(r).ok()) << "step " << step;
      model[id] = r;
    } else {
      ASSERT_TRUE(ds.Delete(id).ok()) << "step " << step;
      model.erase(id);
    }
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  fault.DisarmAll();
  EXPECT_EQ(ds.health(), DatasetHealth::kHealthy);

  const FaultSiteStats ss = fault.site_stats(failpoints::kEnvAppendPage);
  EXPECT_GT(ss.hits, 0u);
  EXPECT_GT(ss.fires, 0u) << "fault rate too low to exercise the retry path";
  const MaintenanceStats& ms = ds.maintenance_stats();
  EXPECT_GE(ms.transient_failures.load(), ss.fires ? 1u : 0u);
  EXPECT_GE(ms.retries_succeeded.load(), 1u);
  EXPECT_EQ(ms.rounds_abandoned.load(), 0u);
  EXPECT_EQ(ms.degraded_transitions.load(), 0u);

  ValidateRecovered(&ds, model, "self-healing");
}

INSTANTIATE_TEST_SUITE_P(EngineModes, FaultSelfHealingTest,
                         ::testing::ValuesIn(kEngineModes),
                         [](const ::testing::TestParamInfo<EngineMode>& info) {
                           return std::string(info.param.name);
                         });

// The merge failpoint contract: every merge attempt consults
// "maintenance.merge" exactly once (never on a pick that finds nothing to
// merge), and every attempt runs under the retry policy. With every third
// attempt failing transiently, the site's hits are then exactly the merges
// that succeeded plus the retried attempts — on every engine mode and every
// non-correlated merge step (plain, merge repair, deleted-key merges).
class MergeFailpointContractTest
    : public ::testing::TestWithParam<
          std::tuple<MaintenanceStrategy, EngineMode>> {};

TEST_P(MergeFailpointContractTest, OneConsultPerMergeAttemptAllRetried) {
  const auto& [strategy, mode] = GetParam();
  const std::string trace =
      std::string(StrategyName(strategy)) + "/" + mode.name;
  FaultInjector fault(17);
  Env env(TestEnv(&fault));
  DatasetOptions o = Opts(strategy, &fault);  // Validation: merge_repair on
  ApplyMode(mode, &o);
  // Concurrent merges interleave their consults, so one merge may draw
  // several failing turns in a row; the budget must absorb them all.
  o.maintenance_retry_limit = 6;
  Dataset ds(&env, o);
  std::map<uint64_t, TweetRecord> model;
  Random rng(5150);
  uint64_t time = 0;

  fault.Arm(failpoints::kMerge,
            FaultSpec::ErrorNth(Status::IOError("transient merge fault"), 3,
                                /*once=*/false));
  // 4,500 ops give 12-19 merges on every mode. The pipeline and decoupled
  // modes coalesce flushes when their background cycles run late, so at
  // 1,500 ops a loaded host could see fewer than 3 merges.
  for (int step = 0; step < 4500; step++) {
    const uint64_t id = 1 + rng.Uniform(kKeySpace);
    if (rng.Bernoulli(0.8)) {
      const TweetRecord r = MakeTweet(id, rng.Uniform(kUserSpace), ++time);
      ASSERT_TRUE(ds.Upsert(r).ok()) << trace << " step " << step;
      model[id] = r;
    } else {
      ASSERT_TRUE(ds.Delete(id).ok()) << trace << " step " << step;
      model.erase(id);
    }
  }
  ASSERT_TRUE(ds.WaitForMaintenance().ok()) << trace;

  const FaultSiteStats ss = fault.site_stats(failpoints::kMerge);
  const uint64_t merges = ds.ingest_stats().merges.load();
  const MaintenanceStats& ms = ds.maintenance_stats();
  ASSERT_GE(merges, 3u) << trace << ": too few merges to reach the fault";
  EXPECT_GE(ss.fires, 1u) << trace;
  EXPECT_EQ(ss.fires, ms.retries_attempted.load()) << trace;
  EXPECT_EQ(ss.hits, merges + ms.retries_attempted.load()) << trace;
  EXPECT_EQ(ms.rounds_abandoned.load(), 0u) << trace;
  EXPECT_EQ(ds.health(), DatasetHealth::kHealthy) << trace;
  ValidateRecovered(&ds, model, trace);
}

INSTANTIATE_TEST_SUITE_P(
    StepsAndModes, MergeFailpointContractTest,
    ::testing::Combine(::testing::Values(MaintenanceStrategy::kEager,
                                         MaintenanceStrategy::kValidation,
                                         MaintenanceStrategy::kDeletedKeyBtree),
                       ::testing::ValuesIn(kEngineModes)),
    [](const auto& info) {
      std::string name = std::string(StrategyName(std::get<0>(info.param))) +
                         "_" + std::get<1>(info.param).name;
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Retry-budget exhaustion: a persistent transient fault on flush builds
// degrades the dataset to read-only. Ingest fails fast with the sticky
// error, reads keep serving, and clearing the error via
// TakeBackgroundError() re-arms the pipeline — including re-flushing the
// sealed memtables the failed builds left behind.
TEST(DegradedModeTest, RetryExhaustionDegradesThenClears) {
  FaultInjector fault(3);
  Env env(TestEnv(&fault));
  DatasetOptions o = Opts(MaintenanceStrategy::kEager, &fault);
  o.mem_budget_bytes = 8 << 10;
  o.maintenance_retry_limit = 2;
  Dataset ds(&env, o);
  uint64_t time = 0;
  for (uint64_t id = 1; id <= 60; id++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(id, id % 5, ++time)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());

  fault.Arm(failpoints::kFlushBuild,
            FaultSpec::Error(Status::IOError("disk down"), 1.0));
  // Ingest until the budget-triggered inline flush exhausts its retries:
  // the triggering op has already committed (it returns OK; the flush
  // failure marks the dataset degraded), the NEXT op fails fast before any
  // effect.
  Status failed;
  uint64_t last_committed = 0;
  for (uint64_t id = 100; id < 600; id++) {
    const Status st = ds.Upsert(MakeTweet(id, 1, ++time));
    if (!st.ok()) {
      failed = st;
      break;
    }
    last_committed = id;
  }
  ASSERT_FALSE(failed.ok()) << "flush faults never surfaced";
  EXPECT_EQ(ds.health(), DatasetHealth::kDegraded);

  // Read-only degraded mode: reads serve, writes fail fast with the cause.
  TweetRecord got;
  EXPECT_TRUE(ds.GetById(1, &got).ok());
  EXPECT_TRUE(ds.GetById(last_committed, &got).ok());
  EXPECT_FALSE(ds.Upsert(MakeTweet(700, 1, ++time)).ok());

  const MaintenanceStats& ms = ds.maintenance_stats();
  EXPECT_GE(ms.transient_failures.load(), 1u);
  EXPECT_GE(ms.retries_attempted.load(), 1u);
  EXPECT_GE(ms.rounds_abandoned.load(), 1u);
  EXPECT_GE(ms.degraded_transitions.load(), 1u);

  // Operator intervention: fix the "disk", take the sticky error(s).
  fault.DisarmAll();
  EXPECT_FALSE(ds.TakeBackgroundError().ok());
  ds.TakeBackgroundError();  // second class (merge queue), if any
  EXPECT_EQ(ds.health(), DatasetHealth::kHealthy);

  // The pipeline re-arms, and the sealed memtables stranded by the failed
  // builds are re-collected by the next flush — no committed data lost.
  ASSERT_TRUE(ds.Upsert(MakeTweet(701, 2, ++time)).ok());
  ASSERT_TRUE(ds.FlushAll().ok());
  EXPECT_TRUE(ds.GetById(701, &got).ok());
  EXPECT_TRUE(ds.GetById(last_committed, &got).ok());
  EXPECT_TRUE(ds.GetById(100, &got).ok());
}

// Permanent errors never retry: a Corruption from a flush build is returned
// immediately with the step's context attached, and the retry counters stay
// untouched. Disarming and re-flushing recovers the stranded data.
TEST(DegradedModeTest, PermanentErrorsAbandonWithoutRetry) {
  FaultInjector fault(5);
  Env env(TestEnv(&fault));
  Dataset ds(&env, Opts(MaintenanceStrategy::kEager, &fault));
  uint64_t time = 0;
  for (uint64_t id = 1; id <= 80; id++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(id, id % 5, ++time)).ok());
  }

  fault.Arm(failpoints::kFlushBuild,
            FaultSpec::Error(Status::Corruption("torn build page"), 1.0));
  const Status st = ds.FlushAll();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  // WithContext names the failed step.
  EXPECT_NE(st.ToString().find("flush("), std::string::npos) << st.ToString();
  const MaintenanceStats& ms = ds.maintenance_stats();
  EXPECT_EQ(ms.retries_attempted.load(), 0u);
  EXPECT_GE(ms.rounds_abandoned.load(), 1u);

  fault.DisarmAll();
  ds.TakeBackgroundError();
  ds.TakeBackgroundError();
  ASSERT_TRUE(ds.FlushAll().ok());
  TweetRecord got;
  EXPECT_TRUE(ds.GetById(1, &got).ok());
  EXPECT_EQ(ds.num_records(), 80u);
}

// kDelay faults charge the site's modeled device clock instead of failing:
// the simulated critical path must grow by at least the injected delay while
// the workload itself sees no errors.
TEST(FaultActionsTest, DelayFaultChargesModeledClock) {
  FaultInjector fault(7);
  Env env(TestEnv(&fault));
  Dataset ds(&env, Opts(MaintenanceStrategy::kEager, &fault));
  uint64_t time = 0;
  for (uint64_t id = 1; id <= 40; id++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(id, id % 5, ++time)).ok());
  }
  const double before = env.io()->critical_path_us();
  fault.Arm(failpoints::kFlushBuild, FaultSpec::Delay(2500.0));
  ASSERT_TRUE(ds.FlushAll().ok());
  EXPECT_GE(env.io()->critical_path_us() - before, 2500.0);
  EXPECT_GT(fault.site_stats(failpoints::kFlushBuild).fires, 0u);
}

// Parity contract: an armed injector whose sites never fire (probability 0)
// must change nothing — same record count, same flush/merge counts, same
// WAL tail, and the same simulated I/O critical path as a run with no
// injector at all. The CI bench DIGEST check pins the disabled case; this
// pins the armed-but-quiet case.
struct RunFingerprint {
  uint64_t records = 0;
  uint64_t flushes = 0;
  uint64_t merges = 0;
  uint64_t read_rows = 0;
  Lsn wal_tail = kInvalidLsn;
  double io_us = 0;
};

RunFingerprint RunParityWorkload(FaultInjector* fault) {
  Env env(TestEnv(fault));
  Dataset ds(&env, Opts(MaintenanceStrategy::kMutableBitmap, fault));
  Random rng(555);
  uint64_t time = 0;
  for (int step = 0; step < 1200; step++) {
    const uint64_t id = 1 + rng.Uniform(kKeySpace);
    if (rng.Bernoulli(0.75)) {
      EXPECT_TRUE(
          ds.Upsert(MakeTweet(id, rng.Uniform(kUserSpace), ++time)).ok());
    } else {
      EXPECT_TRUE(ds.Delete(id).ok());
    }
  }
  EXPECT_TRUE(ds.FlushAll().ok());
  RunFingerprint fp;
  // Read phase: consults (and populates) the tuple cache, so the armed run
  // exercises the cache.tuple_* sites on both the insert and lookup sides.
  {
    SecondaryQueryOptions sq;
    sq.sort_results_by_pk = true;
    QueryResult res;
    EXPECT_TRUE(ds.QueryUserRange(0, 5, sq, &res).ok());
    EXPECT_TRUE(ds.QueryUserRange(0, 5, sq, &res).ok());
    fp.read_rows = res.records.size();
    TweetRecord got;
    for (uint64_t id = 1; id <= 40; id++) {
      if (ds.GetById(id, &got).ok()) fp.read_rows++;
    }
  }
  fp.records = ds.num_records();
  fp.flushes = ds.ingest_stats().flushes;
  fp.merges = ds.ingest_stats().merges;
  fp.wal_tail = ds.wal()->tail_lsn();
  fp.io_us = env.io()->critical_path_us();
  return fp;
}

TEST(FaultParityTest, ArmedInjectorThatNeverFiresChangesNothing) {
  const RunFingerprint base = RunParityWorkload(nullptr);

  FaultInjector fault(1);
  for (const char* site : failpoints::AllSites()) {
    fault.Arm(site, FaultSpec::Error(Status::IOError("never fires"), 0.0));
  }
  const RunFingerprint armed = RunParityWorkload(&fault);

  EXPECT_EQ(armed.records, base.records);
  EXPECT_EQ(armed.flushes, base.flushes);
  EXPECT_EQ(armed.merges, base.merges);
  EXPECT_EQ(armed.read_rows, base.read_rows);
  EXPECT_EQ(armed.wal_tail, base.wal_tail);
  EXPECT_EQ(armed.io_us, base.io_us);
  EXPECT_EQ(fault.TotalFires(), 0u);
  // The sites were genuinely consulted, not bypassed.
  EXPECT_GT(fault.site_stats(failpoints::kEnvAppendPage).hits, 0u);
  EXPECT_GT(fault.site_stats(failpoints::kWalAppend).hits, 0u);
  EXPECT_GT(fault.site_stats(failpoints::kCacheTupleInsert).hits, 0u);
  EXPECT_GT(fault.site_stats(failpoints::kCacheTupleInvalidate).hits, 0u);
}

}  // namespace
}  // namespace auxlsm
