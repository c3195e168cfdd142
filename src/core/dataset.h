// Dataset: the multi-index LSM storage architecture of §3 (Figure 1).
//
// A dataset owns a primary index (primary key -> record), a primary key
// index (primary keys only), and a set of secondary indexes ((secondary key,
// primary key) composed entries). All indexes share one memory budget and
// flush together, so their component IDs line up. The primary index carries
// a component-level range filter on the record's creation_time.
//
// The maintenance strategy governs how auxiliary structures are kept
// consistent under updates and deletes:
//  - kEager           anti-matter via ingestion-time point lookups (§3.1)
//  - kValidation      lazy cleanup, timestamp validation + repair (§4)
//  - kMutableBitmap   per-component validity bitmaps for the primary index
//                     and its filters, secondaries via Validation (§5)
//  - kDeletedKeyBtree AsterixDB baseline: per-secondary-component deleted-key
//                     B+-trees (§2.3/§4.1)
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/mutex.h"
#include "common/rwlatch.h"
#include "common/thread_annotations.h"
#include <string>
#include <vector>

#include "cache/tuple_cache.h"
#include "common/clock.h"
#include "common/result.h"
#include "common/stat_counter.h"
#include "core/query_cursor.h"
#include "fault/fault_injector.h"
#include "core/read_query.h"
#include "format/record.h"
#include "lsm/lsm_tree.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "txn/recovery.h"
#include "txn/transaction.h"

namespace auxlsm {

enum class MaintenanceStrategy {
  kEager,
  kValidation,
  kMutableBitmap,
  kDeletedKeyBtree,
};

const char* StrategyName(MaintenanceStrategy s);

/// Concurrency-control method for flush/merge concurrent with bitmap writers
/// (§5.3). kNone = stop-the-world merge (the baseline in Fig 23).
enum class BuildCcMethod { kNone, kLock, kSideFile };

/// Definition of one secondary index. The extractor returns the fixed-width
/// encoded secondary key of a record.
struct SecondaryIndexDef {
  std::string name = "sk";
  size_t sk_width = 8;
  std::function<std::string(const TweetRecord&)> extract;

  /// The paper's default secondary index on user_id.
  static SecondaryIndexDef UserId();
  /// Synthetic extra attributes for the multi-index scalability experiments
  /// (Fig 15b / Fig 22): a per-index deterministic mix of the user id.
  static SecondaryIndexDef SyntheticAttribute(size_t index_no);
};

struct DatasetOptions {
  MaintenanceStrategy strategy = MaintenanceStrategy::kEager;
  std::vector<SecondaryIndexDef> secondary_indexes = {
      SecondaryIndexDef::UserId()};

  /// Shared memory-component budget across all indexes (§2.2).
  size_t mem_budget_bytes = 4u << 20;
  double bloom_fpr = 0.01;
  bool build_blocked_bloom = true;

  /// Build the primary key index (Fig 13 toggles this off).
  bool enable_primary_key_index = true;
  /// Maintain the creation_time range filter on the primary index.
  bool maintain_range_filter = true;

  /// Per-index merge policy; default tiering with ratio 1.2 (§6.1).
  double merge_size_ratio = 1.2;
  uint64_t max_mergeable_bytes = 64u << 20;
  /// Correlated merge policy (§4.4): synchronize merges of all indexes with
  /// the primary key index.
  bool correlated_merges = false;

  // --- Validation strategy -------------------------------------------------
  /// Repair secondary indexes as part of merges (§4.4).
  bool merge_repair = false;
  /// Bloom filter repair optimization (§4.4); effective with correlated
  /// merges.
  bool repair_bloom_opt = false;

  // --- Mutable-bitmap strategy ----------------------------------------------
  BuildCcMethod build_cc = BuildCcMethod::kNone;

  bool enable_wal = true;
  uint32_t scan_readahead_pages = 32;  ///< scaled equivalent of the paper's 4 MB read-ahead (32 pages of 128 KB)

  /// Queues of the dedicated log device (io/io_engine.h). 1 = the legacy
  /// single-head log model. With more queues, group-commit syncs are charged
  /// to the syncing committer's bound log queue (bind committer threads with
  /// IoQueueScope on wal()->io()) and overlap in modeled time.
  uint32_t log_queues = 1;

  // --- Maintenance engine (exec/maintenance.h) ------------------------------
  /// Inert: nothing reads it. The maintenance engine has no worker pool and
  /// runs every flush build and merge task inline on the calling thread on
  /// every host. The field is kept only because the benchmark harness
  /// (perfbench/src/{ingest,query,service}.cc) still assigns it; dropping
  /// those assignments and this field is a one-line follow-up.
  size_t maintenance_threads = 0;

  // --- Concurrent ingestion pipeline (PR 2) ---------------------------------
  /// Number of writer threads the dataset is tuned for. 1 = the legacy
  /// serial write path (budget overruns flush and merge inline on the
  /// ingesting thread under the exclusive ingest latch; no WAL group
  /// commit) — bit-for-bit the pre-pipeline behavior. > 1 enables the
  /// writer-group pipeline: a budget overrun seals every index's memtable
  /// under a brief exclusive latch and hands flush + merge to a background
  /// maintenance cycle, transaction commits batch their modeled log syncs
  /// through the WAL's group commit, and the Mutable-bitmap strategy's
  /// merges run under the §5.3 concurrency-control method selected by
  /// `build_cc` (kNone = stop-the-world merge, the Fig 23 baseline).
  size_t writer_threads = 1;

  // --- Decoupled merge scheduling (PR 5) ------------------------------------
  /// 0 (default) = legacy coupled maintenance: each background cycle runs
  /// seal -> flush -> install -> merges end-to-end, so a long merge phase
  /// delays the next seal and writers hit the 2x-budget backpressure for the
  /// whole merge's duration — bit-for-bit the pre-decoupling behavior.
  /// > 0 (with writer_threads > 1): the cycle stops after install and hands
  /// merge work to per-tree merge queues drained by the MaintenanceScheduler
  /// (exec/maintenance.h). A backlogged merge on one tree then never blocks
  /// the next seal/install or other trees' merges (per-tree merges stay
  /// mutually serial), so per-op ingest stalls are bounded by flush — not
  /// merge — time. The value is the backpressure depth: writers stall once
  /// the merge queues fall more than `merge_queue_depth` flush rounds
  /// behind, replacing the raw 2x-budget wait-for-the-whole-cycle.
  size_t merge_queue_depth = 0;

  // --- Robustness (PR 6) ----------------------------------------------------
  /// Optional fault injector threaded through every modeled-storage seam
  /// (fault/fault_injector.h). Must outlive the Dataset AND the Env — the
  /// same injector instance should be handed to EnvOptions::fault_injector
  /// so the Env/cache/IO sites and the maintenance sites fire consistently.
  /// Null (default) disables injection entirely (a pure branch per site).
  FaultInjector* fault_injector = nullptr;
  /// Transient-failure retry budget for maintenance steps (flush builds,
  /// installs, merges, merge-queue jobs): a step failing with a retryable
  /// Status (Status::retryable(): IOError / Busy) is re-run up to this many
  /// times before the round is abandoned. 0 = fail fast on first error.
  /// Permanent errors (Corruption, Aborted, ...) never retry.
  uint32_t maintenance_retry_limit = 3;
  /// Base backoff charged between maintenance retries, doubled per attempt
  /// (modeled clock when the Env has one; also a real sleep bound for the
  /// background thread so a fault storm cannot spin a core).
  uint64_t retry_backoff_us = 50;

  // --- Interval tuple cache (PR 7) ------------------------------------------
  /// Byte budget of the validated-tuple cache (cache/tuple_cache.h) that
  /// serves hot point lookups and chain-linked range/secondary queries above
  /// the LSM trees. 0 (default) disables the cache entirely — no cache
  /// object is created, every read site reduces to a null-pointer branch,
  /// and all results, counters, and modeled I/O are bit-for-bit the
  /// pre-cache behavior (the CI bench DIGEST lines pin this).
  size_t tuple_cache_bytes = 0;

  // --- Observability (PR 8) -------------------------------------------------
  /// Metrics registry (obs/metrics.h). When set, the dataset registers its
  /// latency histograms (ingest.op_modeled_ns, ingest.op_wall_ns,
  /// maintenance.*_wall_ns, wal.commit_modeled_ns, io.log.*) and
  /// MetricsSnapshot() folds the registry's metrics into its view. Hand the
  /// SAME registry to EnvOptions::metrics so the storage engine's io.storage
  /// metrics land in one place. Null (default) disables recording — one
  /// branch per site, no modeled-time or DIGEST change (armed-but-quiet,
  /// like the fault injector). Must outlive the Dataset.
  obs::MetricsRegistry* metrics = nullptr;
  /// Per-thread trace ring-buffer size (obs/trace.h). 0 (default) = no
  /// tracer. > 0 creates a Dataset-owned Tracer recording RAII spans for
  /// ingest ops, maintenance cycle steps (seal/flush_build/install/merge),
  /// merge-queue jobs, retries, WAL group-commit syncs, and per-queue
  /// IoEngine charges — each stamped with wall AND modeled time. Drain via
  /// tracer() and export with obs::Tracer::ToChromeJson (Perfetto).
  size_t trace_buffer_bytes = 0;
};

/// Dataset health for the robustness state machine (PR 6): once maintenance
/// exhausts its retry budget or hits a permanent error, the dataset degrades
/// to read-only — ingest fails fast with the sticky background error while
/// reads keep serving the installed components. TakeBackgroundError() clears
/// the degradation once every sticky error class has been taken.
enum class DatasetHealth { kHealthy, kDegraded };

/// Robustness counters (relaxed atomics, like IngestStats): retry/abandon
/// activity of the maintenance pipeline plus degraded-mode transitions.
struct MaintenanceStats {
  StatCounter transient_failures;   ///< retryable step failures observed
  StatCounter retries_attempted;    ///< re-runs issued after a transient failure
  StatCounter retries_succeeded;    ///< steps that succeeded on a retry
  StatCounter rounds_abandoned;     ///< steps given up (budget/permanent)
  StatCounter degraded_transitions; ///< kHealthy -> kDegraded edges

  /// Interval delta (same ergonomics as IoStats::operator-).
  MaintenanceStats operator-(const MaintenanceStats& o) const {
    MaintenanceStats d;
    d.transient_failures = transient_failures.load() - o.transient_failures.load();
    d.retries_attempted = retries_attempted.load() - o.retries_attempted.load();
    d.retries_succeeded = retries_succeeded.load() - o.retries_succeeded.load();
    d.rounds_abandoned = rounds_abandoned.load() - o.rounds_abandoned.load();
    d.degraded_transitions =
        degraded_transitions.load() - o.degraded_transitions.load();
    return d;
  }
};

/// Counters are relaxed atomics: they are bumped from concurrent writers
/// (shared ingest latch) and from the background maintenance cycle.
struct IngestStats {
  StatCounter inserts;
  StatCounter upserts;
  StatCounter deletes;
  StatCounter duplicates_ignored;
  StatCounter ingest_point_lookups;  ///< pre-operation lookups
  StatCounter flushes;
  StatCounter merges;
  StatCounter repairs;
};

class Dataset;

/// One secondary index: its LSM tree plus, under kDeletedKeyBtree, the
/// companion deleted-key tree whose components parallel the index's.
struct SecondaryIndex {
  SecondaryIndexDef def;
  std::unique_ptr<LsmTree> tree;
  std::unique_ptr<LsmTree> deleted_keys;  // kDeletedKeyBtree only
};

// ---------------------------------------------------------------------------
// Query plumbing lives in core/read_query.h (query descriptions, options,
// result shapes) and core/query_cursor.h (streaming cursor); the executors
// are implemented in point_lookup.cc / query.cc / scan.cc / query_cursor.cc.
// ---------------------------------------------------------------------------

/// Serializable snapshot of the dataset's component catalog; stands in for
/// the metadata a real system persists per component. Exported by
/// Checkpoint(), consumed by Dataset::Recover after a simulated crash.
struct DatasetCatalog {
  struct ComponentEntry {
    ComponentId id;
    BtreeMeta meta;
    Timestamp repaired_ts = 0;
    Lsn max_lsn = kInvalidLsn;
    bool has_range_filter = false;
    uint64_t filter_min = 0, filter_max = 0;
    bool has_bitmap = false;
    std::vector<uint64_t> bitmap_words;  ///< checkpointed bitmap contents
    uint64_t bitmap_bits = 0;
    bool shares_primary_bitmap = false;  ///< pk-index component, shared bitmap
  };
  std::vector<ComponentEntry> primary;
  std::vector<ComponentEntry> primary_key;
  std::vector<std::vector<ComponentEntry>> secondaries;
  std::vector<std::vector<ComponentEntry>> deleted_keys;
  Lsn max_component_lsn = kInvalidLsn;
  Lsn bitmap_checkpoint_lsn = kInvalidLsn;
};

class MaintenanceScheduler;
struct ConcurrentMergeStats;

class Dataset {
 public:
  Dataset(Env* env, DatasetOptions options);
  ~Dataset();

  Env* env() const { return env_; }
  const DatasetOptions& options() const { return options_; }
  LogicalClock* clock() { return &clock_; }
  Wal* wal() { return &wal_; }
  LockManager* locks() { return &locks_; }

  // --- Ingestion (auto-commit record-level transactions) --------------------
  /// Inserts a record after a key-uniqueness check; a duplicate key is
  /// ignored (sets *inserted = false).
  Status Insert(const TweetRecord& record, bool* inserted = nullptr);
  Status Upsert(const TweetRecord& record);
  Status Delete(uint64_t id);

  /// Explicit-transaction variants (§5.2's locking/abort semantics).
  std::unique_ptr<Transaction> Begin() { return txns_.Begin(); }
  Status InsertTxn(const TweetRecord& record, Transaction* txn,
                   bool* inserted);
  Status UpsertTxn(const TweetRecord& record, Transaction* txn);
  Status DeleteTxn(uint64_t id, Transaction* txn);

  // --- Queries ----------------------------------------------------------------
  /// Plans a declarative read (core/read_query.h) and opens a streaming
  /// cursor over a snapshot captured here. Fails with a proper error on an
  /// unknown index name or a contradictory description.
  Result<std::unique_ptr<QueryCursor>> NewCursor(const ReadQuery& query);

  // Legacy one-shot entry points: thin wrappers that drain a QueryCursor.
  // Results and counters are bit-identical to the pre-cursor implementations
  // (the unlimited pipeline runs in one chunk with the legacy operator
  // order), so every paper-figure series is unchanged.

  /// Primary-key point query. Query().Primary(id).
  Status GetById(uint64_t id, TweetRecord* out);

  /// Secondary-index range query on user_id in [lo_user, hi_user].
  /// Query().Secondary().Range(lo, hi) with ReadOptions::secondary = opts.
  Status QueryUserRange(uint64_t lo_user, uint64_t hi_user,
                        const SecondaryQueryOptions& opts, QueryResult* out);

  /// Range-filter scan: records with creation_time in [lo, hi] (§6.4.2).
  /// Query().TimeRange(lo, hi).CountOnly().
  Status ScanTimeRange(uint64_t lo, uint64_t hi, ScanResult* out);

  /// Full primary scan counting records with user_id in [lo_user, hi_user]
  /// (the Fig 12b "scan" baseline). Query().Range(lo, hi).CountOnly().
  Status FullScanUserRange(uint64_t lo_user, uint64_t hi_user,
                           ScanResult* out);

  // --- Maintenance -------------------------------------------------------------
  /// Flushes all indexes together (shared budget semantics) and then lets
  /// merge policies run.
  Status FlushAll();
  Status MergeAllIndexes();

  /// Joins the in-flight background maintenance cycle (writer_threads > 1),
  /// drains the decoupled merge queues, and returns the sticky first
  /// background error, if any. No-op on the serial path. Callers should
  /// quiesce writers first if they need "all data flushed" semantics rather
  /// than "the current cycle finished".
  Status WaitForMaintenance();

  /// Returns and *clears* one sticky background error per call (flush-cycle
  /// first, then merge-queue — when both failed, two calls observe both).
  /// Without this, one transient maintenance failure poisons every later
  /// ingest forever; callers that handled the error (retried, shed load)
  /// take it to re-arm the pipeline. OK() once everything is clear; degraded
  /// mode (health()) lifts once the last sticky error class is taken.
  Status TakeBackgroundError();

  /// Robustness state (PR 6): kDegraded once maintenance exhausted its retry
  /// budget or hit a permanent error. Degraded ingest fails fast with the
  /// sticky background error; reads keep serving. Cleared by taking every
  /// sticky error via TakeBackgroundError().
  DatasetHealth health() const {
    return degraded_.load(std::memory_order_acquire) ? DatasetHealth::kDegraded
                                                     : DatasetHealth::kHealthy;
  }
  /// Retry / degraded-mode counters.
  const MaintenanceStats& maintenance_stats() const { return mstats_; }

  /// Standalone repair of every secondary index (§4.4). Brings repairedTS
  /// forward; used by Fig 20-22.
  Status RepairAllSecondaries();

  /// DELI-style primary repair [31] (Fig 20-22 baseline): repairs secondary
  /// indexes by scanning (or fully merging) the primary index.
  Status PrimaryRepair(bool with_merge);

  // --- Recovery ------------------------------------------------------------------
  /// Checkpoints bitmap pages and exports the component catalog. The catalog
  /// stands in for per-component metadata that a real system persists as
  /// flushes/merges happen: it references live component files, so a catalog
  /// taken before later merges retire those files cannot be recovered from —
  /// recovery wants the catalog reflecting the component set at crash time
  /// (§2.2 "examines all valid disk components").
  DatasetCatalog Checkpoint();

  /// Rebuilds a dataset after a simulated crash: reopens components from the
  /// catalog and replays the WAL (§2.2). The WAL and Env must outlive the
  /// crash; `stats` reports replay counts.
  static Result<std::unique_ptr<Dataset>> Recover(Env* env, Wal* wal,
                                                  const DatasetCatalog& catalog,
                                                  DatasetOptions options,
                                                  RecoveryStats* stats);

  // --- Introspection ----------------------------------------------------------
  LsmTree* primary() { return primary_.get(); }
  LsmTree* primary_key_index() { return pk_index_.get(); }
  const std::vector<std::unique_ptr<SecondaryIndex>>& secondaries() const {
    return secondaries_;
  }
  /// Positional access; null when i is out of range (prefer the name-based
  /// catalog lookup below — positions are an artifact of option order).
  SecondaryIndex* secondary(size_t i) {
    return i < secondaries_.size() ? secondaries_[i].get() : nullptr;
  }
  /// Catalog lookup by index name (SecondaryIndexDef::name); a proper error
  /// on unknown names. Query planning routes index selection through this.
  Result<SecondaryIndex*> secondary_by_name(std::string_view name);
  const IngestStats& ingest_stats() const { return stats_; }
  uint64_t num_records() const;

  /// The interval tuple cache; null when tuple_cache_bytes == 0. Read sites
  /// gate on the pointer, so the disabled configuration stays bit-for-bit
  /// legacy.
  TupleCache* tuple_cache() { return tuple_cache_.get(); }
  /// Snapshot of the cache's counters (all-zero when disabled).
  TupleCacheStats tuple_cache_stats() const {
    return tuple_cache_ ? tuple_cache_->stats() : TupleCacheStats{};
  }
  /// The cache space serving secondary index i's range queries (space 0 is
  /// the primary point-lookup space).
  static uint32_t TupleCacheSpaceOf(size_t secondary_index_pos) {
    return static_cast<uint32_t>(1 + secondary_index_pos);
  }

  // --- Observability (PR 8, core/metrics_snapshot.cc) -----------------------
  /// One unified point-in-time view: every subsystem's stats struct
  /// (ingest, maintenance, WAL, storage + log I/O, page cache, tuple
  /// cache), the live backlog gauges (per-tree merge_pending_jobs and
  /// sealed memtables, pending merge rounds/jobs, WAL batch occupancy),
  /// and — when DatasetOptions::metrics is attached — the registry's
  /// counters and latency histograms. Always available (pull-based; costs
  /// nothing until called).
  obs::MetricsSnapshot MetricsSnapshot();
  /// Human-readable dump of MetricsSnapshot() (the quickstart's one-call
  /// "show me what happened").
  std::string DebugString();
  /// Registers an external metrics source folded into every MetricsSnapshot()
  /// (before the registry merge) — how layers built *on top* of the dataset
  /// (the request server's service-side backlog gauges) land in the one
  /// unified view without the dataset knowing about them. Returns a handle
  /// for RemoveMetricsSource; the callback must stay valid until removed,
  /// and must not call back into MetricsSnapshot().
  uint64_t AddMetricsSource(std::function<void(obs::MetricsSnapshot*)> fn);
  void RemoveMetricsSource(uint64_t id);
  /// The dataset-owned tracer; null unless trace_buffer_bytes > 0.
  obs::Tracer* tracer() const { return tracer_.get(); }

  /// The maintenance engine; always present. It runs every task inline;
  /// its merge queues are used only with merge_queue_depth > 0.
  MaintenanceScheduler* maintenance() { return maintenance_.get(); }

  /// Total memory-component bytes across indexes (flush trigger input).
  size_t MemComponentBytes() const;

  // Internal: used by the concurrent-build module. Every ingestion operation
  // holds this in shared mode; the Side-file builder takes it exclusively
  // during its initialization and catchup phases (the "S lock dataset" of
  // Fig 11 — draining ongoing operations).
  RwLatch& ingest_latch() { return ingest_mu_; }

 private:
  friend class SecondaryQueryExecutor;
  friend class FilterScanExecutor;
  friend class QueryCursor;  // cursor open/pull observability counters
  friend Status RunMergeRepair(Dataset* dataset, SecondaryIndex* index,
                               const std::vector<DiskComponentPtr>& picked);
  friend Status RunStandaloneRepair(Dataset* dataset, SecondaryIndex* index);
  friend Status ConcurrentMergePicked(Dataset* dataset,
                                      const std::vector<DiskComponentPtr>&,
                                      const std::vector<DiskComponentPtr>&,
                                      BuildCcMethod, ConcurrentMergeStats*,
                                      bool);

  /// Lock-only internal transaction excluded from the no-steal active count
  /// (the §5.3 Lock-method builder): it has no memtable effects, so sealing
  /// while it runs is safe and must not be deferred. Deliberately NOT public
  /// — a write transaction begun this way would be flushable mid-flight,
  /// breaking the no-steal invariant its rollback relies on.
  std::unique_ptr<Transaction> BeginReadOnly() {
    return txns_.BeginReadOnly();
  }

  // ingest.cc
  Status IngestOp(LogRecordType op, const TweetRecord& record,
                  Transaction* txn, bool* inserted, bool log_to_wal);
  /// Recovery redo of a data operation (uses the record's original ts, no
  /// WAL logging, no locks).
  Status ReplayOp(const LogRecord& r, const TweetRecord& record);
  /// Recovery redo of a bitmap mutation for a record whose data already
  /// resides in disk components (update bit, §5.2).
  Status ReplayBitmap(const LogRecord& r);
  // The strategy upsert helpers and the cache cut below run with the ingest
  // latch held shared: they mutate memtables and component bitmaps that the
  // seal/install phases swap under the exclusive latch. IngestOp holds the
  // guard across the whole operation; ReplayOp takes it itself (recovery is
  // single-threaded, but the invariant is uniform either way).
  Status EagerUpsert(const TweetRecord& record, Timestamp ts,
                     Transaction* txn, bool is_delete)
      REQUIRES_SHARED(ingest_mu_);
  Status ValidationUpsert(const TweetRecord& record, Timestamp ts,
                          Transaction* txn, bool is_delete)
      REQUIRES_SHARED(ingest_mu_);
  Status MutableBitmapUpsert(const TweetRecord& record, Timestamp ts,
                             Transaction* txn, bool is_delete,
                             bool* update_bit) REQUIRES_SHARED(ingest_mu_);
  Status DeletedKeyUpsert(const TweetRecord& record, Timestamp ts,
                          Transaction* txn, bool is_delete)
      REQUIRES_SHARED(ingest_mu_);
  Status InsertIntoAll(const TweetRecord& record, Timestamp ts,
                       Transaction* txn) REQUIRES_SHARED(ingest_mu_);
  /// Cuts every tuple-cache entry the write could have stale-served: the
  /// record's primary key (which fences all range spaces — the *old*
  /// secondary keys are unknown under the lazy strategies) plus, for
  /// non-deletes, the new secondary key positions. Called under the shared
  /// ingest latch AFTER the memtable effects are visible; no-op when the
  /// cache is disabled.
  void InvalidateTupleCache(const TweetRecord& record, LogRecordType op)
      REQUIRES_SHARED(ingest_mu_);
  /// `in_explicit_txn` = the calling thread holds an open explicit
  /// transaction (and with it record locks): it must never park on
  /// maintenance backpressure, because the merge it would wait for may
  /// itself be blocked on one of its locks (§5.3 Lock-method builder) — a
  /// deadlock no timeout would break.
  Status CheckBudgetAndMaintain(bool in_explicit_txn);

  // --- Writer-group pipeline (ingest.cc / dataset.cc) ----------------------
  bool multi_writer() const { return options_.writer_threads > 1; }
  /// Decoupled merge scheduling is on: flush cycles enqueue merge work onto
  /// the scheduler's per-tree queues instead of running it inline.
  bool merge_queues_enabled() const {
    return options_.merge_queue_depth > 0 && multi_writer();
  }
  /// Every index tree of the dataset (primary, pk, secondaries, deleted-key).
  std::vector<LsmTree*> AllTrees();
  /// Launches one background maintenance cycle if the budget is exceeded and
  /// none is running; applies backpressure when writers outpace the pipeline
  /// (skipped for threads holding an open explicit transaction — see
  /// CheckBudgetAndMaintain).
  Status MaintainAsync(bool in_explicit_txn);
  /// One background cycle: seal (brief exclusive latch) -> build components
  /// off-latch -> install + seal-window bitmap fixup (exclusive latch) ->
  /// merges (run in coupled mode; enqueued on the per-tree merge queues in
  /// decoupled mode).
  Status MaintenanceCycle();
  /// Joins only the in-flight flush cycle (not the merge queues): the
  /// decoupled pipeline's 2x-budget wait, bounded by flush time.
  Status JoinFlushCycle();
  /// Decoupled mode: hands this cycle's merge work to the scheduler's
  /// per-tree queues as one round (one job per tree / correlated group).
  void EnqueueMergeWork();
  /// Mutable-bitmap only: marks entries of the freshly flushed primary
  /// component that are superseded by newer active-memtable writes (their
  /// delete/upsert raced the sealed window). Caller holds the latch. The
  /// superseding writes were recorded in pending_bitmap_fixups_ as they
  /// happened (MutableBitmapUpsert found the old version in a *sealed*
  /// memtable), so the fixup costs O(recorded deletes) B-tree probes rather
  /// than O(|active memtable| log n) under the exclusive latch.
  Status FixupFlushedBitmap() REQUIRES(ingest_mu_);
  /// Records a seal-window superseding write for the next fixup.
  void RecordBitmapFixup(const std::string& pk, Timestamp ts);

  // --- Maintenance steps (dataset.cc) ---------------------------------------
  // Each step exists once; the serial inline path (CheckBudgetAndMaintain ->
  // FlushAllLocked + RunMerges), the background cycle (MaintenanceCycle) and
  // the decoupled merge-queue jobs (EnqueueMergeWork) differ only in their
  // latch scopes and seal-window policy.

  /// One tree's sealed memtable in a flush round. `slot` is the tree's
  /// position in the fixed enumeration (primary, pk index, then each
  /// secondary's tree and deleted-key tree; absent trees keep their slot):
  /// the device queue its build charges, on every engine.
  struct SealedFlush {
    LsmTree* tree;
    std::shared_ptr<Memtable> mem;
    uint32_t slot;
    DiskComponentPtr built;  ///< set by BuildFlushRound
  };
  struct FlushRound {
    std::vector<SealedFlush> trees;
    Lsn flush_lsn = kInvalidLsn;  ///< max_lsn stamped on the new components
  };
  /// Flush step 1 (exclusive latch): seals every tree's active memtable and
  /// collects every pending sealed memtable, including those a failed
  /// earlier round left behind.
  FlushRound SealFlushRound() REQUIRES(ingest_mu_);
  /// Flush step 2 (any latch scope): builds every sealed memtable's
  /// component as one scheduler task per memtable, each under retry with
  /// the kFlushBuild failpoint. A failure installs nothing.
  Status BuildFlushRound(FlushRound* round);
  /// Flush step 3 (exclusive latch): one kInstall consult, then installs
  /// every built component, stamps max_lsn, re-shares the Mutable-bitmap
  /// pk-index bitmap and counts the flush.
  Status InstallFlushRound(const FlushRound& round) REQUIRES(ingest_mu_);
  /// Seal + build + install under the caller's exclusive latch, dropping
  /// the seal-window fixup records (FlushAll and the serial inline path).
  Status FlushAllLocked() REQUIRES(ingest_mu_);
  /// The one no-steal rule for budget-triggered flushes: due once the
  /// memory budget is exceeded, deferred while an explicit transaction is
  /// open (its uncommitted entries must stay within reach of rollback).
  bool BudgetFlushDue() const REQUIRES(ingest_mu_);

  /// The one merge step: RunWithRetry("merge(<tree>)") around a single
  /// kMerge failpoint consult and `merge`. Every pick loop below uses it.
  Status MergeStep(const std::string& tree,
                   const std::function<Status()>& merge);
  /// Plain merges of one tree until its policy is satisfied (large merges
  /// may be partitioned by the scheduler).
  Status MergeTreeToPolicy(LsmTree* tree);
  /// Merge-repair merges for one secondary index until its policy is
  /// satisfied (Validation strategy, §4.4).
  Status MergeRepairToPolicy(SecondaryIndex* index);
  /// Deleted-key merges for one secondary index until its policy is
  /// satisfied (kDeletedKeyBtree, §4.1). `decoupled` = running as a
  /// merge-queue job: picks are captured under a brief shared ingest latch
  /// (see CorrelatedMerge).
  Status DeletedKeyMergesToPolicy(SecondaryIndex* index, bool decoupled);
  /// Strategy dispatch for one secondary index's non-correlated merges
  /// (merge repair / deleted-key / plain).
  Status SecondaryMergesToPolicy(SecondaryIndex* index, bool decoupled);
  /// Correlated merge rounds (§4.4). `decoupled` = running as a merge-queue
  /// job concurrent with flush installs: each round's range pick and
  /// per-tree component slices are captured under a brief *shared* ingest
  /// latch (installs hold it exclusively, so the positional alignment across
  /// trees is consistent), and the merges install by identity, which
  /// tolerates components prepended meanwhile.
  Status CorrelatedMerge(bool decoupled = false);
  /// One serial stream of merge work: its merges never run concurrently.
  struct MergeStream {
    LsmTree* tree;  ///< the stream's queue key and accounting tree
    std::function<Status()> work;
  };
  /// The merge streams of one round: a single correlated stream, or one
  /// per tree (primary, pk index, one per secondary).
  std::vector<MergeStream> MergeStreams(bool decoupled);
  /// Runs one round's merge streams as scheduler tasks (coupled mode).
  Status RunMerges();
  /// Records the wall time since `wall0` (no-op when `hist` is null).
  static void RecordWallNs(obs::Histogram* hist,
                           std::chrono::steady_clock::time_point wall0);
  /// Evaluates the dataset-level tiering policy (merge_size_ratio /
  /// max_mergeable_bytes) over a component snapshot. Shared by the
  /// correlated and deleted-key pick paths so their policy cannot drift.
  MergeRange PickTieringRange(
      const std::vector<DiskComponentPtr>& comps) const;
  LsmTreeOptions MakeTreeOptions(const std::string& name, bool is_primary,
                                 bool attach_bitmap, bool range_filter) const;

  // --- Robustness helpers (dataset.cc) --------------------------------------
  /// Runs `fn` with bounded retry-on-transient: a Status::retryable() failure
  /// is re-run up to maintenance_retry_limit times with exponential backoff
  /// (retry_backoff_us, modeled + real); permanent errors and exhausted
  /// budgets return immediately with `what` prefixed as context. Updates
  /// mstats_.
  Status RunWithRetry(const std::string& what,
                      const std::function<Status()>& fn);
  /// Marks the dataset degraded and stores `cause` as the sticky flush-cycle
  /// error if none is stored yet.
  void MarkDegraded(const Status& cause);
  /// Flag-only degraded transition: used when the sticky error lives in the
  /// merge scheduler (TakeMergeError would double-report a copied status).
  void MarkDegraded();
  /// The error degraded ingest fails with (a peek at the sticky state —
  /// does NOT clear it; callers clear via TakeBackgroundError).
  Status DegradedError();

  Env* const env_;
  DatasetOptions options_;
  LogicalClock clock_;
  LockManager locks_;
  Wal wal_;
  TransactionManager txns_;

  std::unique_ptr<LsmTree> primary_;
  std::unique_ptr<LsmTree> pk_index_;
  std::vector<std::unique_ptr<SecondaryIndex>> secondaries_;
  /// Name -> position catalog for secondary_by_name (first definition wins
  /// if options carry duplicate names). Immutable after construction.
  std::unordered_map<std::string, size_t> secondary_catalog_;
  std::unique_ptr<MaintenanceScheduler> maintenance_;
  std::unique_ptr<TupleCache> tuple_cache_;  // null when disabled

  // Observability (PR 8). The tracer is dataset-owned and detached from the
  // engines in the destructor; histogram pointers are cached at construction
  // (null when no registry) so hot paths record with one branch + one
  // relaxed RMW.
  std::unique_ptr<obs::Tracer> tracer_;
  obs::Histogram* hist_ingest_modeled_ = nullptr;  ///< ingest.op_modeled_ns
  obs::Histogram* hist_ingest_wall_ = nullptr;     ///< ingest.op_wall_ns
  obs::Histogram* hist_cycle_wall_ = nullptr;      ///< maintenance.cycle_wall_ns
  obs::Histogram* hist_flush_build_wall_ = nullptr;  ///< maintenance.flush_build_wall_ns
  obs::Histogram* hist_merge_job_wall_ = nullptr;  ///< maintenance.merge_job_wall_ns
  StatCounter* ctr_cursor_open_ = nullptr;         ///< query.cursors_opened
  StatCounter* ctr_cursor_pull_ = nullptr;         ///< query.pages_pulled

  /// The ingest latch (rank kIngestLatch — the shallowest rank: every other
  /// engine lock may be taken under it, never the reverse). Shared by every
  /// ingestion operation; exclusive for seal/install/stop-the-world merges
  /// and the Side-file builder's catchup.
  RwLatch ingest_mu_{lockrank::kIngestLatch, "dataset.ingest"};
  IngestStats stats_;
  Lsn bitmap_checkpoint_lsn_ = kInvalidLsn;

  // Seal-window delete side-list (Mutable-bitmap): writes that superseded an
  // old version sitting in a sealed memtable, keyed (pk, ts). Appended under
  // the shared ingest latch; drained by FixupFlushedBitmap under the
  // exclusive latch at install time.
  Mutex fixup_mu_{lockrank::kLeaf, "dataset.fixup"};
  std::vector<std::pair<std::string, Timestamp>> pending_bitmap_fixups_
      GUARDED_BY(fixup_mu_);

  // Background maintenance cycle (writer_threads > 1). bg_active_ admits one
  // cycle at a time; bg_mu_ guards the thread handle and the sticky first
  // error. The thread is joined by WaitForMaintenance / the next launch /
  // the destructor. Rank kLeaf: taken under the exclusive ingest latch
  // (MarkDegraded on the serial inline path) with nothing nested inside.
  Mutex bg_mu_{lockrank::kLeaf, "dataset.bg"};
  std::thread bg_thread_ GUARDED_BY(bg_mu_);
  std::atomic<bool> bg_active_{false};
  Status bg_status_ GUARDED_BY(bg_mu_);

  // Robustness state (PR 6): set on retry-budget exhaustion or permanent
  // maintenance errors; read lock-free by every ingest op.
  std::atomic<bool> degraded_{false};
  MaintenanceStats mstats_;

  // External metrics sources (PR 9): folded into MetricsSnapshot(). The
  // mutex is unranked: the callbacks it is held across are caller-supplied
  // (they read gauges, which may take arbitrary unrelated locks).
  Mutex metrics_sources_mu_;
  uint64_t next_metrics_source_id_ GUARDED_BY(metrics_sources_mu_) = 1;
  std::vector<std::pair<uint64_t, std::function<void(obs::MetricsSnapshot*)>>>
      metrics_sources_ GUARDED_BY(metrics_sources_mu_);
};

// repair.cc — exposed for tests and benchmarks.
Status RunMergeRepair(Dataset* dataset, SecondaryIndex* index,
                      const std::vector<DiskComponentPtr>& picked);
Status RunStandaloneRepair(Dataset* dataset, SecondaryIndex* index);

}  // namespace auxlsm
