#include "core/dataset.h"

#include <algorithm>
#include <chrono>

#include "common/hash.h"
#include "core/deleted_key.h"
#include "core/mutable_bitmap_build.h"
#include "exec/maintenance.h"
#include "format/key_codec.h"
#include "io/io_engine.h"

namespace auxlsm {

const char* StrategyName(MaintenanceStrategy s) {
  switch (s) {
    case MaintenanceStrategy::kEager: return "eager";
    case MaintenanceStrategy::kValidation: return "validation";
    case MaintenanceStrategy::kMutableBitmap: return "mutable-bitmap";
    case MaintenanceStrategy::kDeletedKeyBtree: return "deleted-key-btree";
  }
  return "?";
}

SecondaryIndexDef SecondaryIndexDef::UserId() {
  SecondaryIndexDef def;
  def.name = "user_id";
  def.sk_width = 8;
  def.extract = [](const TweetRecord& r) { return EncodeU64(r.user_id); };
  return def;
}

SecondaryIndexDef SecondaryIndexDef::SyntheticAttribute(size_t index_no) {
  if (index_no == 0) return UserId();
  SecondaryIndexDef def;
  def.name = "attr" + std::to_string(index_no);
  def.sk_width = 8;
  def.extract = [index_no](const TweetRecord& r) {
    // Deterministic per-index remix of the user id, so each index has a
    // distinct value distribution over the same domain size.
    return EncodeU64(Mix64(r.user_id * 1000003u + index_no) % 100000);
  };
  return def;
}

LsmTreeOptions Dataset::MakeTreeOptions(const std::string& name,
                                        bool is_primary, bool attach_bitmap,
                                        bool range_filter) const {
  LsmTreeOptions o;
  o.name = name;
  o.bloom_fpr = options_.bloom_fpr;
  o.build_bloom = true;
  o.build_blocked_bloom = options_.build_blocked_bloom;
  o.attach_bitmap = attach_bitmap;
  o.maintain_range_filter = range_filter;
  if (range_filter && is_primary) {
    o.filter_key_extractor = [](const Slice&, const Slice& value) {
      uint64_t t = 0;
      ExtractCreationTime(value, &t);
      return t;
    };
  }
  // Correlated merging is coordinated by the dataset, so per-tree policies
  // stay off in that mode.
  if (!options_.correlated_merges) {
    o.merge_policy = std::make_shared<TieringMergePolicy>(
        options_.merge_size_ratio, options_.max_mergeable_bytes);
  }
  o.scan_readahead_pages = options_.scan_readahead_pages;
  return o;
}

Dataset::Dataset(Env* env, DatasetOptions options)
    : env_(env),
      options_(std::move(options)),
      wal_(DeviceProfile::FromDisk(DiskProfile::Hdd(), options_.log_queues)),
      txns_(&locks_, &wal_) {
  const bool mb = options_.strategy == MaintenanceStrategy::kMutableBitmap;
  // The Mutable-bitmap strategy requires the primary index and the primary
  // key index to merge in lock step so their components keep sharing one
  // validity bitmap (§5.1: "we synchronize the merges ... using the
  // correlated merge policy"). Independent merges would silently drop the
  // sharing and lose bitmap marks.
  if (mb) options_.correlated_merges = true;
  primary_ = std::make_unique<LsmTree>(
      env_, MakeTreeOptions("primary", /*is_primary=*/true,
                            /*attach_bitmap=*/mb,
                            options_.maintain_range_filter));
  if (options_.enable_primary_key_index) {
    pk_index_ = std::make_unique<LsmTree>(
        env_, MakeTreeOptions("pk_index", /*is_primary=*/false,
                              /*attach_bitmap=*/false, false));
  }
  for (const auto& def : options_.secondary_indexes) {
    auto idx = std::make_unique<SecondaryIndex>();
    idx->def = def;
    idx->tree = std::make_unique<LsmTree>(
        env_, MakeTreeOptions(def.name, false, false, false));
    if (options_.strategy == MaintenanceStrategy::kDeletedKeyBtree) {
      idx->deleted_keys = std::make_unique<LsmTree>(
          env_, MakeTreeOptions(def.name + ".deleted", false, false, false));
    }
    secondary_catalog_.emplace(def.name, secondaries_.size());
    secondaries_.push_back(std::move(idx));
  }
  if (options_.tuple_cache_bytes > 0) {
    tuple_cache_ = std::make_unique<TupleCache>(
        options_.tuple_cache_bytes,
        static_cast<uint32_t>(1 + secondaries_.size()),
        options_.fault_injector);
    // Component turnover (flush installs, merges, repair) preserves logical
    // content, but an in-flight reader insert must not straddle it: fence
    // every space's epoch whenever any tree's disk-component list changes.
    TupleCache* cache = tuple_cache_.get();
    for (LsmTree* t : AllTrees()) {
      t->set_install_hook([cache]() { cache->BumpEpochs(); });
    }
  }
  MaintenanceOptions mopts;
  mopts.io = env_->io();  // queue affinity for the maintenance tasks
  maintenance_ = std::make_unique<MaintenanceScheduler>(mopts);
  // Multi-writer commits batch their modeled log syncs (group commit).
  if (multi_writer()) wal_.set_group_commit(true);
  // Thread the fault injector through the WAL seams (Env/cache/IO sites are
  // wired by the Env itself via EnvOptions::fault_injector).
  if (options_.fault_injector != nullptr) {
    wal_.set_fault_injector(options_.fault_injector);
  }
  // Observability (PR 8). Storage-engine metrics are wired by the Env itself
  // (EnvOptions::metrics); the dataset adds its own histograms, the WAL's
  // commit-latency histogram, and the log device's io.log metrics.
  if (options_.metrics != nullptr) {
    hist_ingest_modeled_ = options_.metrics->histogram("ingest.op_modeled_ns");
    hist_ingest_wall_ = options_.metrics->histogram("ingest.op_wall_ns");
    hist_cycle_wall_ = options_.metrics->histogram("maintenance.cycle_wall_ns");
    hist_flush_build_wall_ =
        options_.metrics->histogram("maintenance.flush_build_wall_ns");
    hist_merge_job_wall_ =
        options_.metrics->histogram("maintenance.merge_job_wall_ns");
    ctr_cursor_open_ = options_.metrics->counter("query.cursors_opened");
    ctr_cursor_pull_ = options_.metrics->counter("query.pages_pulled");
    wal_.set_metrics(options_.metrics);
    wal_.io()->set_metrics(options_.metrics, "io.log");
  }
  if (options_.trace_buffer_bytes > 0) {
    tracer_ = std::make_unique<obs::Tracer>(options_.trace_buffer_bytes);
    // Modeled stamps come from the recording thread's bound storage queue —
    // the clock the DIGEST critical path is made of.
    IoEngine* const storage_io = env_->io();
    tracer_->set_modeled_clock(
        [storage_io]() { return storage_io->BoundQueueClock(); });
    wal_.set_tracer(tracer_.get());
    wal_.io()->set_tracer(tracer_.get());
    env_->io()->set_tracer(tracer_.get());  // detached in ~Dataset
  }
}

Dataset::~Dataset() {
  // Background maintenance touches the trees and the WAL; join it first.
  WaitForMaintenance();
  // The tracer dies with the dataset but the Env outlives it: detach.
  if (tracer_ != nullptr) env_->io()->set_tracer(nullptr);
}

std::vector<LsmTree*> Dataset::AllTrees() {
  std::vector<LsmTree*> trees;
  trees.push_back(primary_.get());
  if (pk_index_) trees.push_back(pk_index_.get());
  for (const auto& s : secondaries_) {
    trees.push_back(s->tree.get());
    if (s->deleted_keys) trees.push_back(s->deleted_keys.get());
  }
  return trees;
}

size_t Dataset::MemComponentBytes() const {
  size_t total = primary_->MemBytes();
  if (pk_index_) total += pk_index_->MemBytes();
  for (const auto& s : secondaries_) {
    total += s->tree->MemBytes();
    if (s->deleted_keys) {
      total += s->deleted_keys->MemBytes();
    }
  }
  return total;
}

Status Dataset::JoinFlushCycle() {
  std::thread t;
  {
    MutexLock l(bg_mu_);
    if (bg_thread_.joinable()) t = std::move(bg_thread_);
  }
  if (t.joinable()) t.join();
  MutexLock l(bg_mu_);
  return bg_status_;
}

Status Dataset::WaitForMaintenance() {
  Status s = JoinFlushCycle();
  // Decoupled merge scheduling: quiescing means the merge queues are empty
  // too, and their sticky first error surfaces here (a no-op with empty
  // queues, i.e. on every coupled configuration).
  const Status merge = maintenance_->DrainMerges();
  if (s.ok()) s = merge;
  return s;
}

Status Dataset::TakeBackgroundError() {
  // Pop one error class per call: when both the flush cycle and a merge job
  // failed, the first call returns (and clears) the flush error and leaves
  // the merge error observable for the next call — never silently dropped.
  Status s;
  {
    MutexLock l(bg_mu_);
    if (!bg_status_.ok()) {
      s = bg_status_;
      bg_status_ = Status::OK();
    }
  }
  if (s.ok()) s = maintenance_->TakeMergeError();
  // Degraded mode lifts only once no sticky error remains in either class —
  // taking the flush error while a merge error is still queued keeps ingest
  // fail-fast until that one is taken too.
  bool clear;
  {
    MutexLock l(bg_mu_);
    clear = bg_status_.ok() && !maintenance_->has_merge_error();
  }
  if (clear) degraded_.store(false, std::memory_order_release);
  return s;
}

Status Dataset::RunWithRetry(const std::string& what,
                             const std::function<Status()>& fn) {
  uint32_t attempt = 0;
  while (true) {
    const Status s = fn();
    if (s.ok()) {
      if (attempt > 0) mstats_.retries_succeeded++;
      return s;
    }
    if (!s.retryable()) {
      // Permanent (Corruption, Aborted, ...): re-running cannot help.
      mstats_.rounds_abandoned++;
      return s.WithContext(what);
    }
    mstats_.transient_failures++;
    if (attempt >= options_.maintenance_retry_limit) {
      mstats_.rounds_abandoned++;
      return s.WithContext(what + " (retries exhausted)");
    }
    attempt++;
    mstats_.retries_attempted++;
    if (tracer_ != nullptr) {
      obs::TraceEvent ev;
      ev.SetName(("retry:" + what).c_str());
      ev.cat = "maintenance";
      ev.instant = true;
      ev.wall_ts_us = tracer_->WallNowUs();
      ev.modeled_ts_us = tracer_->ModeledNowUs();
      tracer_->Record(ev);
    }
    // Exponential backoff: charged to the modeled clock (so retry storms
    // show up in simulated time) and bounded-slept for real (so the
    // background thread cannot spin a core under a fault storm).
    const uint64_t backoff = options_.retry_backoff_us
                             << std::min<uint32_t>(attempt, 10);
    if (backoff > 0) {
      env_->io()->ChargeDelay(double(backoff));
      std::this_thread::sleep_for(
          std::chrono::microseconds(std::min<uint64_t>(backoff, 1000)));
    }
  }
}

void Dataset::MarkDegraded(const Status& cause) {
  if (!cause.ok()) {
    MutexLock l(bg_mu_);
    if (bg_status_.ok()) bg_status_ = cause;
  }
  MarkDegraded();
}

void Dataset::MarkDegraded() {
  if (!degraded_.exchange(true, std::memory_order_acq_rel)) {
    mstats_.degraded_transitions++;
    if (tracer_ != nullptr) tracer_->Instant("dataset.degraded", "health");
  }
}

Status Dataset::DegradedError() {
  {
    MutexLock l(bg_mu_);
    if (!bg_status_.ok()) return bg_status_;
  }
  const Status s = maintenance_->merge_error();
  if (!s.ok()) return s;
  // The flag is set but both sticky slots already drained (a concurrent
  // taker raced us): report the state rather than inventing an error.
  return Status::Aborted("dataset degraded: maintenance failed");
}

Status Dataset::MaintainAsync(bool in_explicit_txn) {
  {
    MutexLock l(bg_mu_);
    AUXLSM_RETURN_NOT_OK(bg_status_);  // surface sticky pipeline errors
  }
  if (merge_queues_enabled() && maintenance_->has_merge_error()) {
    AUXLSM_RETURN_NOT_OK(maintenance_->merge_error());  // rare slow path
  }
  if (MemComponentBytes() < options_.mem_budget_bytes) return Status::OK();
  // Deadlock guard: only the §5.3 Lock-method builder takes record locks
  // during a merge, so only there can "merge waits on a transaction's lock,
  // the transaction's thread waits on the merge" form a cycle no timeout
  // breaks. Threads holding an open explicit transaction skip merge-side
  // waits in exactly that configuration (their overrun is bounded by the
  // transaction's length); every other strategy/CC keeps full backpressure,
  // and the flush-cycle join stays safe everywhere (seal/build/install
  // never take record locks).
  const bool skip_merge_waits =
      in_explicit_txn &&
      options_.strategy == MaintenanceStrategy::kMutableBitmap &&
      options_.build_cc == BuildCcMethod::kLock;
  if (merge_queues_enabled()) {
    // Bounded merge-backlog backpressure: writers stall only while the merge
    // queues are more than merge_queue_depth flush rounds behind — they wait
    // out the backlog *excess*, never a full drain, so the stall is bounded
    // by the overrun rather than the whole merge schedule.
    if (!skip_merge_waits) {
      maintenance_->WaitForMergeRounds(options_.merge_queue_depth);
    }
    // Memory bound: a writer a whole budget ahead joins the in-flight
    // *flush* cycle only (merges are queued elsewhere), so this wait is
    // bounded by flush time — the decoupling payoff.
    if (MemComponentBytes() >= 2 * options_.mem_budget_bytes) {
      AUXLSM_RETURN_NOT_OK(JoinFlushCycle());
    }
  } else if (!skip_merge_waits &&
             MemComponentBytes() >= 2 * options_.mem_budget_bytes) {
    // Coupled legacy backpressure: wait for the whole cycle, merges
    // included — which is why Lock-method explicit-txn threads must skip it
    // (the cycle's merge phase can be blocked on one of their locks: the
    // same deadlock, present since the pipeline landed, closed here too).
    AUXLSM_RETURN_NOT_OK(WaitForMaintenance());
  }
  bool expected = false;
  if (!bg_active_.compare_exchange_strong(expected, true)) {
    return Status::OK();  // a cycle is already running
  }
  // Sole launcher from here: reap the previous cycle's thread, start ours.
  std::thread prev;
  {
    MutexLock l(bg_mu_);
    if (bg_thread_.joinable()) prev = std::move(bg_thread_);
  }
  if (prev.joinable()) prev.join();
  MutexLock l(bg_mu_);
  bg_thread_ = std::thread([this]() {
    Status s = MaintenanceCycle();
    // A failed cycle already exhausted its retry budget (or hit a permanent
    // error): store the sticky error and degrade to read-only until the
    // caller takes it (TakeBackgroundError).
    if (!s.ok()) MarkDegraded(s);
    bg_active_.store(false, std::memory_order_release);
  });
  return Status::OK();
}

void Dataset::RecordWallNs(obs::Histogram* hist,
                           std::chrono::steady_clock::time_point wall0) {
  if (hist == nullptr) return;
  hist->Record(uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - wall0)
                            .count()));
}

bool Dataset::BudgetFlushDue() const {
  ingest_mu_.AssertHeld();
  if (MemComponentBytes() < options_.mem_budget_bytes) return false;
  // No-steal: an open explicit transaction may have uncommitted effects in
  // the memtables — sealing them would flush uncommitted data to disk and
  // strand the rollback closures. Auto-commit transactions live entirely
  // inside a shared-latch hold, so under the exclusive latch any active
  // count is explicit ones; defer the flush until they close (a later
  // ingest op re-triggers it).
  return txns_.active_transactions() == 0;
}

Status Dataset::MaintenanceCycle() {
  obs::TraceSpan cycle_span(tracer_.get(), "maintenance.cycle", "maintenance");
  const auto cycle_wall0 = std::chrono::steady_clock::now();
  // Seal under a brief exclusive section; writers resume into fresh
  // memtables while the sealed set is built off-latch.
  FlushRound round;
  {
    WriteLatchGuard latch(ingest_mu_);
    if (!BudgetFlushDue()) return Status::OK();
    round = SealFlushRound();
  }
  if (round.trees.empty()) return Status::OK();
  AUXLSM_RETURN_NOT_OK(BuildFlushRound(&round));
  {
    WriteLatchGuard latch(ingest_mu_);
    AUXLSM_RETURN_NOT_OK(InstallFlushRound(round));
    // Seal-window policy: writes that superseded an entry while it sat in a
    // sealed memtable are marked in the freshly installed component.
    if (options_.strategy == MaintenanceStrategy::kMutableBitmap) {
      AUXLSM_RETURN_NOT_OK(FixupFlushedBitmap());
    }
  }

  // Merges off-latch. Writers only mutate memtables (and, under
  // Mutable-bitmap, old components' bitmaps — which CorrelatedMerge routes
  // through the §5.3 concurrency-control machinery), so merges are safe
  // against concurrent ingestion. Decoupled mode hands the work to the
  // per-tree merge queues instead, so this cycle — and with it the *next*
  // seal/install — never waits on a merge backlog.
  Status s;
  if (merge_queues_enabled()) {
    // Every cycle enqueues its round unconditionally: a tree whose earlier
    // jobs already retired would otherwise never see this cycle's installs
    // (no re-enqueue path exists outside a flush cycle), leaving a quiesced
    // dataset above its merge policy. Backlog stays bounded anyway: writers
    // wait at merge_queue_depth before launching a cycle, and each of the
    // at-most-writer_threads threads parked between that wait and the CAS
    // can add one stale round — ≤ depth + writer_threads rounds total.
    EnqueueMergeWork();
  } else {
    obs::TraceSpan merge_span(tracer_.get(), "merge", "maintenance");
    s = RunMerges();
  }
  RecordWallNs(hist_cycle_wall_, cycle_wall0);
  return s;
}

Dataset::FlushRound Dataset::SealFlushRound() {
  ingest_mu_.AssertHeld();
  obs::TraceSpan seal_span(tracer_.get(), "seal", "maintenance");
  FlushRound round;
  uint32_t slot = 0;
  auto seal = [&](LsmTree* t) {
    const uint32_t tree_slot = slot++;
    if (t == nullptr) return;
    t->SealMemtable();
    // Every pending sealed memtable, not just the fresh one: a round
    // abandoned by a build failure left its memtables sealed (recoverable,
    // but uninstalled) — this is their re-flush path.
    for (auto& m : t->PendingSealed()) {
      round.trees.push_back(SealedFlush{t, m, tree_slot, nullptr});
    }
  };
  seal(primary_.get());
  seal(pk_index_.get());
  for (auto& s : secondaries_) {
    seal(s->tree.get());
    seal(s->deleted_keys.get());
  }
  round.flush_lsn = wal_.tail_lsn();
  return round;
}

Status Dataset::BuildFlushRound(FlushRound* round) {
  // Distinct trees write distinct files, so each build is its own scheduler
  // task on its tree's device queue. Each build runs under the
  // transient-retry policy; a failed build leaves its sealed memtable in
  // place, so no data is lost (WAL + sealed state).
  FaultInjector* const fault = options_.fault_injector;
  std::vector<std::function<Status()>> tasks;
  tasks.reserve(round->trees.size());
  for (SealedFlush& f : round->trees) {
    tasks.push_back([this, fault, &f]() -> Status {
      // Each tree charges its own device queue, whichever thread runs it:
      // modeled device concurrency does not require host concurrency
      // (queue 0 for every tree on a single-queue device).
      IoQueueScope io_scope(env_->io(), f.slot);
      const std::string& tree = f.tree->options().name;
      obs::TraceSpan build_span(tracer_.get(),
                                ("flush_build(" + tree + ")").c_str(),
                                "maintenance",
                                int32_t(env_->io()->BoundQueue()));
      const auto wall0 = std::chrono::steady_clock::now();
      const Status s = RunWithRetry("flush(" + tree + ")", [&]() -> Status {
        if (fault != nullptr) {
          AUXLSM_RETURN_NOT_OK(fault->Hit(failpoints::kFlushBuild, env_->io()));
        }
        AUXLSM_ASSIGN_OR_RETURN(f.built, f.tree->BuildFromSealed(f.mem));
        return Status::OK();
      });
      RecordWallNs(hist_flush_build_wall_, wall0);
      return s;
    });
  }
  return maintenance_->RunAll(std::move(tasks));
}

Status Dataset::InstallFlushRound(const FlushRound& round) {
  ingest_mu_.AssertHeld();
  // All trees' components appear atomically w.r.t. ingestion, preserving
  // the positional alignment that correlated merges and bitmap sharing rely
  // on. The install failpoint is consulted ONCE, before any tree installs —
  // an injected install error is all-or-nothing, never a partial install.
  obs::TraceSpan install_span(tracer_.get(), "install", "maintenance");
  FaultInjector* const fault = options_.fault_injector;
  if (fault != nullptr && !round.trees.empty()) {
    AUXLSM_RETURN_NOT_OK(RunWithRetry("install", [&]() -> Status {
      return fault->Hit(failpoints::kInstall, env_->io());
    }));
  }
  for (const SealedFlush& f : round.trees) {
    AUXLSM_RETURN_NOT_OK(f.tree->InstallFlushed(f.mem, f.built));
    f.built->set_max_lsn(round.flush_lsn);
  }
  // Under the Mutable-bitmap strategy the primary and primary key index are
  // synchronized and share one validity bitmap per component (§5.1).
  if (options_.strategy == MaintenanceStrategy::kMutableBitmap && pk_index_) {
    auto pcomps = primary_->Components();
    auto kcomps = pk_index_->Components();
    if (!pcomps.empty() && !kcomps.empty() &&
        kcomps.front()->bitmap() == nullptr) {
      kcomps.front()->set_bitmap(pcomps.front()->bitmap());
    }
  }
  stats_.flushes++;
  return Status::OK();
}

Status Dataset::FlushAll() {
  AUXLSM_RETURN_NOT_OK(WaitForMaintenance());
  WriteLatchGuard l(ingest_mu_);
  return FlushAllLocked();
}

Status Dataset::FlushAllLocked() {
  ingest_mu_.AssertHeld();
  // Build everything, then install everything: a build failure leaves every
  // tree uninstalled with its sealed memtables intact, never some trees
  // flushed and others not.
  FlushRound round = SealFlushRound();
  AUXLSM_RETURN_NOT_OK(BuildFlushRound(&round));
  AUXLSM_RETURN_NOT_OK(InstallFlushRound(round));
  // Seal-window policy: a direct flush wrote active and sealed memtables
  // together, so any recorded seal-window supersessions now coexist with
  // their newer versions as separate components reconciled by recency. Drop
  // the stale records (each would only waste a B-tree probe).
  if (options_.strategy == MaintenanceStrategy::kMutableBitmap) {
    MutexLock fl(fixup_mu_);
    pending_bitmap_fixups_.clear();
  }
  return Status::OK();
}

void Dataset::RecordBitmapFixup(const std::string& pk, Timestamp ts) {
  MutexLock l(fixup_mu_);
  pending_bitmap_fixups_.emplace_back(pk, ts);
}

Status Dataset::FixupFlushedBitmap() {
  ingest_mu_.AssertHeld();
  // Deletes/upserts whose old version sat in a *sealed* memtable left only
  // anti-matter (or a newer version) in the active memtable; the flushed
  // component carries the old version as valid. Mark those entries invalid,
  // exactly as MutableBitmapUpsert would have had the component existed —
  // otherwise the §5 no-reconciliation scans would resurrect them.
  //
  // The superseding writes were recorded as they happened (the write found
  // its old version in a sealed memtable — precisely the entries the flushed
  // component now carries as valid), so only they pay a B-tree probe here,
  // not every entry of the active memtable. Keys whose old version was on
  // disk had their bit flipped directly at write time, and fresh inserts
  // cannot supersede a live sealed entry (the uniqueness check rejects
  // them), so nothing else can need a mark.
  std::vector<std::pair<std::string, Timestamp>> pending;
  {
    MutexLock l(fixup_mu_);
    pending.swap(pending_bitmap_fixups_);
  }
  if (pending.empty()) return Status::OK();
  auto pcomps = primary_->Components();
  if (pcomps.empty()) return Status::OK();
  const DiskComponentPtr& front = pcomps.front();
  if (front->bitmap() == nullptr) return Status::OK();
  for (size_t i = 0; i < pending.size(); i++) {
    const auto& [key, ts] = pending[i];
    LeafEntry entry;
    std::string backing;
    uint64_t ordinal = 0;
    Status st = front->tree().GetWithOrdinal(key, &entry, &backing,
                                             &ordinal);
    if (st.IsNotFound()) continue;
    if (!st.ok()) {
      // Re-stash the unprocessed marks (current one included — Set is
      // idempotent): a retried cycle must not lose supersessions, or the §5
      // scans would resurrect the dead entries.
      MutexLock l(fixup_mu_);
      pending_bitmap_fixups_.insert(pending_bitmap_fixups_.begin(),
                                    pending.begin() + i, pending.end());
      return st.WithContext("bitmap fixup");
    }
    if (!entry.antimatter && entry.ts < ts) {
      front->bitmap()->Set(ordinal);
      // The bit flip changed the visible outcome for this pk outside the
      // write path's own invalidation window; cut the cache again.
      if (tuple_cache_) tuple_cache_->InvalidatePk(key);
    }
  }
  return Status::OK();
}

Status Dataset::MergeStep(const std::string& tree,
                          const std::function<Status()>& merge) {
  // One merge attempt = one failpoint consult + the merge itself. A merge
  // fails before any component is replaced, so a transient failure retries
  // against the same picked inputs.
  FaultInjector* const fault = options_.fault_injector;
  return RunWithRetry("merge(" + tree + ")", [&]() -> Status {
    if (fault != nullptr) {
      AUXLSM_RETURN_NOT_OK(fault->Hit(failpoints::kMerge, env_->io()));
    }
    return merge();
  });
}

Status Dataset::MergeTreeToPolicy(LsmTree* tree) {
  std::vector<DiskComponentPtr> picked;
  while (tree->PickMergeCandidates(&picked)) {
    AUXLSM_RETURN_NOT_OK(MergeStep(tree->options().name, [&]() {
      return tree->MergeComponents(picked);
    }));
    stats_.merges++;
  }
  return Status::OK();
}

Status Dataset::MergeRepairToPolicy(SecondaryIndex* index) {
  // Merge repair replaces the plain merge for secondary indexes (§4.4). The
  // tree's own policy is the same tiering policy the options describe.
  std::vector<DiskComponentPtr> picked;
  while (index->tree->PickMergeCandidates(&picked)) {
    AUXLSM_RETURN_NOT_OK(MergeStep(index->tree->options().name, [&]() {
      return RunMergeRepair(this, index, picked);
    }));
    stats_.merges++;
    stats_.repairs++;
  }
  return Status::OK();
}

MergeRange Dataset::PickTieringRange(
    const std::vector<DiskComponentPtr>& comps) const {
  std::vector<ComponentSizeInfo> sizes;
  sizes.reserve(comps.size());
  for (const auto& c : comps) {
    sizes.push_back(ComponentSizeInfo{c->size_bytes()});
  }
  TieringMergePolicy policy(options_.merge_size_ratio,
                            options_.max_mergeable_bytes);
  return policy.PickMerge(sizes);
}

namespace {

std::vector<DiskComponentPtr> SliceRange(
    const std::vector<DiskComponentPtr>& comps, const MergeRange& r) {
  return {comps.begin() + r.begin, comps.begin() + r.end};
}

}  // namespace

Status Dataset::DeletedKeyMergesToPolicy(SecondaryIndex* index,
                                         bool decoupled) {
  while (true) {
    // Pick and capture the index slice and its lock-step deleted-keys slice
    // in one consistent view: as a merge-queue job (`decoupled`), flush
    // installs run concurrently and would shift positions between the two
    // reads, so the pick holds the ingest latch shared (see CorrelatedMerge).
    MergeRange r;
    std::vector<DiskComponentPtr> picked, dk_picked;
    // The guard scope depends on `decoupled`, which one scoped guard cannot
    // express; the capture is hoisted into a lambda run under the latch or
    // bare. The lambda carries no capability assumptions of its own — the
    // component lists are internally synchronized, the latch only freezes
    // the positional alignment between the two reads.
    auto capture = [&]() {
      auto comps = index->tree->Components();
      r = PickTieringRange(comps);
      if (r.empty() || r.count() < 2) return;
      picked = SliceRange(comps, r);
      auto dk = index->deleted_keys->Components();
      if (dk.size() >= r.end) dk_picked = SliceRange(dk, r);
    };
    if (decoupled) {
      ReadLatchGuard pick_latch(ingest_mu_);
      capture();
    } else {
      capture();
    }
    if (r.empty() || r.count() < 2) break;
    AUXLSM_RETURN_NOT_OK(
        MergeStep(index->deleted_keys->options().name, [&]() {
          return RunDeletedKeyMergePicked(this, index, picked, dk_picked);
        }));
    stats_.merges++;
  }
  return Status::OK();
}

Status Dataset::SecondaryMergesToPolicy(SecondaryIndex* s, bool decoupled) {
  if (options_.strategy == MaintenanceStrategy::kValidation &&
      options_.merge_repair) {
    return MergeRepairToPolicy(s);
  }
  if (options_.strategy == MaintenanceStrategy::kDeletedKeyBtree) {
    return DeletedKeyMergesToPolicy(s, decoupled);
  }
  return MergeTreeToPolicy(s->tree.get());
}

std::vector<Dataset::MergeStream> Dataset::MergeStreams(bool decoupled) {
  if (options_.correlated_merges) {
    // Every index merges in lock step with the anchor: one stream.
    LsmTree* anchor = pk_index_ ? pk_index_.get() : primary_.get();
    return {MergeStream{
        anchor, [this, decoupled]() { return CorrelatedMerge(decoupled); }}};
  }
  // One stream per tree: each tree's own merges stay serialized inside its
  // stream, and in decoupled mode independent trees' streams drain
  // concurrently. Secondary repair/deleted-key merges may then read the
  // primary-key index concurrently with its own merge — safe because
  // readers work on component snapshots and ReplaceComponents swaps
  // atomically.
  std::vector<MergeStream> streams;
  streams.push_back(MergeStream{
      primary_.get(), [this]() { return MergeTreeToPolicy(primary_.get()); }});
  if (pk_index_ != nullptr) {
    streams.push_back(MergeStream{pk_index_.get(), [this]() {
      return MergeTreeToPolicy(pk_index_.get());
    }});
  }
  for (auto& sp : secondaries_) {
    SecondaryIndex* s = sp.get();
    streams.push_back(MergeStream{s->tree.get(), [this, s, decoupled]() {
      return SecondaryMergesToPolicy(s, decoupled);
    }});
  }
  return streams;
}

Status Dataset::RunMerges() {
  std::vector<std::function<Status()>> tasks;
  for (MergeStream& m : MergeStreams(/*decoupled=*/false)) {
    tasks.push_back(std::move(m.work));
  }
  return maintenance_->RunAll(std::move(tasks));
}

void Dataset::EnqueueMergeWork() {
  // One round = one job per merge stream. Jobs sharing a key run serially in
  // FIFO order on the scheduler's merge queues, preserving the per-tree
  // merge serialization invariant; redundant jobs (the tree's policy is
  // already satisfied when they run) are cheap no-op policy checks, and the
  // round count is exactly how many flush cycles the merge queues are
  // running behind.
  std::vector<MaintenanceScheduler::MergeJob> round;
  for (MergeStream& m : MergeStreams(/*decoupled=*/true)) {
    LsmTree* const tree = m.tree;
    tree->BeginQueuedMerge();
    const std::string what = "merge_job(" + tree->options().name + ")";
    round.push_back(MaintenanceScheduler::MergeJob{
        tree, [this, tree, what, work = std::move(m.work)]() {
          // Transient job failures retry in place on the queue (the work
          // re-picks its merge inputs each run, so a retry sees the current
          // component lists). EndQueuedMerge runs no matter what — a failed
          // job must never leave the accounting wedged.
          FaultInjector* const fault = options_.fault_injector;
          Status s;
          {
            obs::TraceSpan job_span(tracer_.get(), what.c_str(), "merge",
                                    int32_t(env_->io()->BoundQueue()));
            const auto wall0 = std::chrono::steady_clock::now();
            s = RunWithRetry(what, [&]() -> Status {
              if (fault != nullptr) {
                AUXLSM_RETURN_NOT_OK(
                    fault->Hit(failpoints::kMergeJob, env_->io()));
              }
              return work();
            });
            RecordWallNs(hist_merge_job_wall_, wall0);
          }
          tree->EndQueuedMerge();
          // Flag-only degrade: the scheduler keeps the sticky error itself
          // (storing a copy in bg_status_ would double-report it).
          if (!s.ok()) MarkDegraded();
          return s;
        }});
  }
  maintenance_->EnqueueMergeRound(std::move(round));
}

Status Dataset::CorrelatedMerge(bool decoupled) {
  // The correlated merge policy (§4.4) keeps all of a dataset's indexes
  // merging in lock step with the primary key index: all indexes flush
  // together, so their newest-first component lists are positionally aligned
  // and one pick applies to every index.
  LsmTree* anchor = pk_index_ ? pk_index_.get() : primary_.get();
  while (true) {
    // Pick the round's range and capture every tree's input slice in one
    // consistent view. As a merge-queue job (`decoupled`), flush installs
    // run concurrently and would shift positional indexes between reads of
    // different trees' lists, so the pick holds the ingest latch *shared* —
    // installs hold it exclusively, writers are unaffected. The merges below
    // install by identity (ReplaceComponents), which tolerates components
    // prepended after the capture.
    MergeRange r;
    std::vector<DiskComponentPtr> p_picked, k_picked;
    struct SecPick {
      std::vector<DiskComponentPtr> tree;
      std::vector<DiskComponentPtr> deleted;
    };
    std::vector<SecPick> spicked(secondaries_.size());
    // Conditional latch scope, hoisted into a lambda exactly as in
    // DeletedKeyMergesToPolicy above.
    auto capture = [&]() -> Status {
      auto comps = anchor->Components();
      r = PickTieringRange(comps);
      if (r.empty() || r.count() < 2) return Status::OK();
      // The anchor's pick slices straight off the snapshot the policy saw;
      // only the non-anchor primary needs a bounds re-check (the trees flush
      // in lock step, so a shortfall means the positional alignment the
      // correlated policy relies on is broken — fail loudly rather than
      // merge a wrong slice).
      if (pk_index_ != nullptr) {
        k_picked = SliceRange(comps, r);
        auto pcomps = primary_->Components();
        if (r.end > pcomps.size()) {
          return Status::InvalidArgument(
              "primary/pk component lists out of sync");
        }
        p_picked = SliceRange(pcomps, r);
      } else {
        p_picked = SliceRange(comps, r);
      }
      for (size_t i = 0; i < secondaries_.size(); i++) {
        SecondaryIndex* s = secondaries_[i].get();
        auto scomps = s->tree->Components();
        if (scomps.size() < r.end) continue;  // index skipped early flushes
        spicked[i].tree = SliceRange(scomps, r);
        if (s->deleted_keys != nullptr) {
          auto dcomps = s->deleted_keys->Components();
          if (dcomps.size() >= r.end) {
            spicked[i].deleted = SliceRange(dcomps, r);
          }
        }
      }
      return Status::OK();
    };
    if (decoupled) {
      ReadLatchGuard pick_latch(ingest_mu_);
      AUXLSM_RETURN_NOT_OK(capture());
    } else {
      AUXLSM_RETURN_NOT_OK(capture());
    }
    if (r.empty() || r.count() < 2) break;

    // Merge of one tree's captured slice.
    auto merge_picked = [this](LsmTree* t,
                               const std::vector<DiskComponentPtr>& picked) {
      return MergeStep(t->options().name,
                       [&]() { return t->MergeComponents(picked); });
    };

    // Phase 1: primary and primary key index merge (as two scheduler tasks)
    // — their post-merge components must exist before the bitmap re-share
    // and before secondary repair validates against them.
    if (multi_writer() &&
        options_.strategy == MaintenanceStrategy::kMutableBitmap) {
      // Background merge concurrent with live writers: writers flip bits in
      // the very components being merged, so the merge must run under a
      // §5.3 concurrency-control method. ConcurrentMerge builds the
      // primary + pk-index pair sharing one bitmap, so no re-share is
      // needed. kNone has no writer coordination — stop the world instead
      // (the Fig 23 baseline semantics).
      ConcurrentMergeStats cstats;
      if (options_.build_cc == BuildCcMethod::kNone) {
        WriteLatchGuard latch(ingest_mu_);
        AUXLSM_RETURN_NOT_OK(
            RunWithRetry("merge(concurrent)", [&]() -> Status {
              return ConcurrentMergePicked(this, p_picked, k_picked,
                                           BuildCcMethod::kNone, &cstats,
                                           /*dataset_latched=*/true);
            }));
      } else {
        AUXLSM_RETURN_NOT_OK(
            RunWithRetry("merge(concurrent)", [&]() -> Status {
              return ConcurrentMergePicked(this, p_picked, k_picked,
                                           options_.build_cc, &cstats);
            }));
      }
    } else {
      std::vector<std::function<Status()>> tasks;
      tasks.push_back([&]() { return merge_picked(primary_.get(), p_picked); });
      if (pk_index_ != nullptr) {
        tasks.push_back(
            [&]() { return merge_picked(pk_index_.get(), k_picked); });
      }
      AUXLSM_RETURN_NOT_OK(maintenance_->RunAll(std::move(tasks)));
      if (options_.strategy == MaintenanceStrategy::kMutableBitmap &&
          pk_index_) {
        // Re-share the merged components' bitmap. Positional refetch is safe
        // here: this branch never runs concurrently with installs (the
        // Mutable-bitmap multi-writer path goes through ConcurrentMerge
        // above, which shares the bitmap during the build).
        auto pcomps = primary_->Components();
        auto kcomps = pk_index_->Components();
        if (r.begin < pcomps.size() && r.begin < kcomps.size()) {
          kcomps[r.begin]->set_bitmap(pcomps[r.begin]->bitmap());
        }
      }
    }
    // Phase 2: secondary indexes, one task per index.
    const bool repair = options_.strategy == MaintenanceStrategy::kValidation &&
                        options_.merge_repair;
    std::vector<std::function<Status()>> stasks;
    for (size_t i = 0; i < secondaries_.size(); i++) {
      SecondaryIndex* s = secondaries_[i].get();
      const SecPick& pick = spicked[i];
      if (pick.tree.empty()) continue;
      if (repair) {
        stasks.push_back([this, s, &pick]() -> Status {
          AUXLSM_RETURN_NOT_OK(MergeStep(s->tree->options().name, [&]() {
            return RunMergeRepair(this, s, pick.tree);
          }));
          stats_.repairs++;
          return Status::OK();
        });
      } else {
        stasks.push_back([&merge_picked, s, &pick]() -> Status {
          AUXLSM_RETURN_NOT_OK(merge_picked(s->tree.get(), pick.tree));
          if (pick.deleted.empty()) return Status::OK();
          return merge_picked(s->deleted_keys.get(), pick.deleted);
        });
      }
    }
    AUXLSM_RETURN_NOT_OK(maintenance_->RunAll(std::move(stasks)));
    stats_.merges++;
  }
  return Status::OK();
}

Status Dataset::MergeAllIndexes() {
  AUXLSM_RETURN_NOT_OK(WaitForMaintenance());
  AUXLSM_RETURN_NOT_OK(primary_->MergeAll());
  if (pk_index_) AUXLSM_RETURN_NOT_OK(pk_index_->MergeAll());
  if (options_.strategy == MaintenanceStrategy::kMutableBitmap && pk_index_) {
    auto pcomps = primary_->Components();
    auto kcomps = pk_index_->Components();
    if (!pcomps.empty() && !kcomps.empty()) {
      kcomps.front()->set_bitmap(pcomps.front()->bitmap());
    }
  }
  for (auto& s : secondaries_) {
    AUXLSM_RETURN_NOT_OK(s->tree->MergeAll());
    if (s->deleted_keys) AUXLSM_RETURN_NOT_OK(s->deleted_keys->MergeAll());
  }
  return Status::OK();
}

uint64_t Dataset::num_records() const {
  // Reconciling scan over the primary index (exact; test/diagnostic use).
  // Memtables before components (flush-race ordering; see ReconcilingScan).
  auto mem = primary_->MemSnapshot();
  auto comps = primary_->Components();
  MergeCursor::Options mo;
  mo.respect_bitmaps = true;
  mo.drop_antimatter = false;
  MergeCursor cursor(comps, mo);
  if (!cursor.Init().ok()) return 0;
  // Merge the memtable snapshot with the disk cursor, newest wins.
  uint64_t count = 0;
  size_t mi = 0;
  auto mem_key = [&]() { return Slice(mem[mi].key); };
  while (cursor.Valid() || mi < mem.size()) {
    int cmp;
    if (!cursor.Valid()) {
      cmp = -1;  // memtable only
    } else if (mi >= mem.size()) {
      cmp = 1;  // disk only
    } else {
      cmp = mem_key().compare(cursor.key());
    }
    if (cmp < 0) {
      if (!mem[mi].antimatter) count++;
      mi++;
    } else if (cmp > 0) {
      if (!cursor.antimatter()) count++;
      if (!cursor.Next().ok()) break;
    } else {
      // Duplicate key: the copy with the larger timestamp decides liveness.
      const bool antimatter = mem[mi].ts >= cursor.ts()
                                  ? mem[mi].antimatter
                                  : cursor.antimatter();
      if (!antimatter) count++;
      mi++;
      if (!cursor.Next().ok()) break;
    }
  }
  return count;
}

DatasetCatalog Dataset::Checkpoint() {
  // The catalog must reference a stable component set; drain the pipeline.
  WaitForMaintenance();
  DatasetCatalog cat;
  auto snap_tree = [&](LsmTree* t, std::vector<DatasetCatalog::ComponentEntry>* out,
                       bool pk_shares_bitmap) {
    if (t == nullptr) return;
    for (const auto& c : t->Components()) {
      DatasetCatalog::ComponentEntry e;
      e.id = c->id();
      e.meta = c->meta();
      e.repaired_ts = c->repaired_ts();
      e.max_lsn = c->max_lsn();
      if (c->range_filter().has_value() && c->range_filter()->has_value()) {
        e.has_range_filter = true;
        e.filter_min = c->range_filter()->min();
        e.filter_max = c->range_filter()->max();
      }
      if (c->bitmap() != nullptr) {
        e.has_bitmap = true;
        e.bitmap_bits = c->bitmap()->size();
        e.bitmap_words = c->bitmap()->Words();
        e.shares_primary_bitmap = pk_shares_bitmap;
      }
      cat.max_component_lsn = std::max(cat.max_component_lsn, e.max_lsn);
      out->push_back(std::move(e));
    }
  };
  snap_tree(primary_.get(), &cat.primary, false);
  snap_tree(pk_index_.get(), &cat.primary_key,
            options_.strategy == MaintenanceStrategy::kMutableBitmap);
  cat.secondaries.resize(secondaries_.size());
  cat.deleted_keys.resize(secondaries_.size());
  for (size_t i = 0; i < secondaries_.size(); i++) {
    snap_tree(secondaries_[i]->tree.get(), &cat.secondaries[i], false);
    snap_tree(secondaries_[i]->deleted_keys.get(), &cat.deleted_keys[i],
              false);
  }
  // Checkpointing flushes dirty bitmap pages (§5.2): everything up to the
  // current tail is now durable for bitmaps.
  cat.bitmap_checkpoint_lsn = wal_.tail_lsn();
  bitmap_checkpoint_lsn_ = cat.bitmap_checkpoint_lsn;
  return cat;
}

namespace {

// Reopens one disk component from catalog metadata, rebuilding its Bloom
// filters by scanning the keys (a real system would store filter pages in
// the component file; the rebuild preserves behaviour).
Result<DiskComponentPtr> ReopenComponent(
    Env* env, const LsmTreeOptions& topts,
    const DatasetCatalog::ComponentEntry& e) {
  auto c = std::make_shared<DiskComponent>(e.id, env, e.meta);
  c->set_repaired_ts(e.repaired_ts);
  c->set_max_lsn(e.max_lsn);
  if (e.has_range_filter) {
    RangeFilter f;
    f.Expand(e.filter_min);
    f.Expand(e.filter_max);
    c->set_range_filter(f);
  }
  if (e.has_bitmap) {
    c->set_bitmap(std::make_shared<Bitmap>(
        Bitmap::FromWords(e.bitmap_bits, e.bitmap_words)));
  }
  if (topts.build_bloom || topts.build_blocked_bloom) {
    std::vector<uint64_t> hashes;
    hashes.reserve(e.meta.num_entries);
    auto it = c->tree().NewIterator(/*readahead=*/32);
    AUXLSM_RETURN_NOT_OK(it.SeekToFirst());
    while (it.Valid()) {
      hashes.push_back(Hash64(it.key()));
      AUXLSM_RETURN_NOT_OK(it.Next());
    }
    if (topts.build_bloom) {
      c->set_bloom(std::make_unique<BloomFilter>(hashes, topts.bloom_fpr));
    }
    if (topts.build_blocked_bloom) {
      c->set_blocked_bloom(
          std::make_unique<BlockedBloomFilter>(hashes, topts.bloom_fpr));
    }
  }
  return c;
}

Status ReopenTree(Env* env, LsmTree* tree,
                  const std::vector<DatasetCatalog::ComponentEntry>& entries) {
  // Catalog order is newest first; ReplaceComponents with no olds prepends,
  // so install oldest first.
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    AUXLSM_ASSIGN_OR_RETURN(DiskComponentPtr c,
                            ReopenComponent(env, tree->options(), *it));
    AUXLSM_RETURN_NOT_OK(tree->ReplaceComponents({}, std::move(c)));
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<Dataset>> Dataset::Recover(Env* env, Wal* wal,
                                                  const DatasetCatalog& catalog,
                                                  DatasetOptions options,
                                                  RecoveryStats* stats) {
  auto ds = std::make_unique<Dataset>(env, std::move(options));
  AUXLSM_RETURN_NOT_OK(ReopenTree(env, ds->primary_.get(), catalog.primary));
  if (ds->pk_index_) {
    AUXLSM_RETURN_NOT_OK(
        ReopenTree(env, ds->pk_index_.get(), catalog.primary_key));
    // Re-establish bitmap sharing between primary and pk-index components.
    // Sharing is positional, so first verify the two lists actually line up
    // wherever the catalog asks for a share: matching component ids and
    // entry counts (bit positions are ordinals — a count mismatch means the
    // shared bitmap would mark the wrong rows).
    auto pcomps = ds->primary_->Components();
    auto kcomps = ds->pk_index_->Components();
    bool aligned = true;
    for (size_t i = 0; i < kcomps.size(); i++) {
      if (i >= catalog.primary_key.size() ||
          !catalog.primary_key[i].shares_primary_bitmap) {
        continue;
      }
      if (i >= pcomps.size() ||
          pcomps[i]->id().min_ts != kcomps[i]->id().min_ts ||
          pcomps[i]->id().max_ts != kcomps[i]->id().max_ts ||
          pcomps[i]->meta().num_entries != kcomps[i]->meta().num_entries) {
        aligned = false;
        break;
      }
    }
    if (aligned) {
      for (size_t i = 0; i < kcomps.size() && i < pcomps.size(); i++) {
        if (i < catalog.primary_key.size() &&
            catalog.primary_key[i].shares_primary_bitmap) {
          kcomps[i]->set_bitmap(pcomps[i]->bitmap());
        }
      }
    } else if (ds->options_.strategy == MaintenanceStrategy::kMutableBitmap) {
      // Positional alignment was lost (a fault tore the lock-step merge
      // schedule before the crash). The reopened components still carry
      // correct per-component bitmap *contents* from the catalog; a full
      // merge of both trees materializes that validity into one component
      // each, and the pair can share a single fresh bitmap again. This must
      // happen before WAL replay: replayed bitmap ops target the front
      // component's shared bitmap.
      AUXLSM_RETURN_NOT_OK(ds->primary_->MergeAll());
      AUXLSM_RETURN_NOT_OK(ds->pk_index_->MergeAll());
      auto pm = ds->primary_->Components();
      auto km = ds->pk_index_->Components();
      if (!pm.empty() && !km.empty()) {
        km.front()->set_bitmap(pm.front()->bitmap());
      }
    }
  }
  for (size_t i = 0; i < ds->secondaries_.size(); i++) {
    if (i < catalog.secondaries.size()) {
      AUXLSM_RETURN_NOT_OK(ReopenTree(env, ds->secondaries_[i]->tree.get(),
                                      catalog.secondaries[i]));
    }
    if (ds->secondaries_[i]->deleted_keys && i < catalog.deleted_keys.size()) {
      AUXLSM_RETURN_NOT_OK(ReopenTree(
          env, ds->secondaries_[i]->deleted_keys.get(),
          catalog.deleted_keys[i]));
    }
  }

  Dataset* d = ds.get();
  auto redo_op = [d](const LogRecord& r) -> Status {
    TweetRecord rec;
    if (r.type == LogRecordType::kDelete) {
      rec.id = DecodeU64(r.key);
    } else {
      AUXLSM_RETURN_NOT_OK(TweetRecord::Deserialize(r.value, &rec));
    }
    return d->ReplayOp(r, rec);
  };
  auto redo_bitmap = [d](const LogRecord& r) -> Status {
    return d->ReplayBitmap(r);
  };
  AUXLSM_RETURN_NOT_OK(RecoverFromWal(*wal, catalog.max_component_lsn,
                                      catalog.bitmap_checkpoint_lsn, redo_op,
                                      redo_bitmap, stats));
  return ds;
}

}  // namespace auxlsm
