// Runtime lock-rank checker: a per-thread held-capability stack asserting
// the engine's documented lock-acquisition order.
//
// Clang Thread Safety Analysis (thread_annotations.h) proves *which* lock a
// piece of code holds, but its static view cannot globally rank the custom
// primitives — "never take the ingest latch while holding a tree mutex" is a
// whole-program ordering property over runtime lock instances. This checker
// closes that gap dynamically in debug builds: every ranked capability
// acquisition pushes (capability, rank) onto a thread-local stack after
// asserting that its rank is strictly greater than the top-most *ranked*
// hold, so any acquisition that inverts the documented order aborts at the
// exact site, deterministically, on the first occurrence — no racy schedule
// required (unlike a TSan deadlock report).
//
// Documented order (ROADMAP "Locking discipline"), shallow to deep:
//
//   rank 100  Dataset::ingest_mu_ (the ingest RwLatch)
//   rank 200  LsmTree::mem_mu_
//   rank 210  LsmTree::components_mu_   (mem_mu_ -> components_mu_ nests in
//                                        InstallFlushed; never the reverse)
//   rank 300  leaf subsystem mutexes: TupleCache::mu_, Wal::mu_,
//             Dataset::fixup_mu_, LockManager shard mutexes,
//             MaintenanceScheduler::merge_mu_, ...
//             (leaves relative to each other: two rank-300 locks must never
//             nest, which the strict ordering check enforces for free)
//   rank 310  ThreadPool::queue_mu_ (the request server's worker pool)
//   rank 400  BufferCache shard mutexes
//   rank 450  PageStore::mu_ (miss fills fault pages under the shard lock)
//   rank 500  DiskModel::mu_ (every modeled-I/O charge bottoms out here:
//             WAL syncs, cache miss fills, page appends)
//
// Re-entrant same-rank acquisition is a violation by design: no two locks of
// equal rank may ever be held together (each rank is either a single global
// object or a sharded family whose shards are never nested).
//
// Unranked capabilities (rank 0, the default) are exempt from ordering but
// still tracked on the stack, which is what powers the debug
// AssertHeld()/AssertHeldShared() assertions on RwLatch and Mutex: "does
// this thread hold capability X right now" is a stack membership test.
//
// Cost model: the checker is compiled in only when AUXLSM_LOCK_RANK_CHECKS
// is defined (CMake -DAUXLSM_LOCK_RANK=ON, default ON for Debug builds, and
// the CI TSan job). Release builds compile the hook sites out entirely —
// the primitives' fast paths are byte-identical to the unannotated seed, so
// every serial-path bench DIGEST is unchanged by construction. The checker
// class itself is always compiled (tests drive it directly in any build);
// only the *hooks* inside Mutex/RwLatch are conditional.
#pragma once

#include <cstdint>

namespace auxlsm {
namespace lockrank {

// Canonical ranks of the documented acquisition order. Values are spaced so
// future subsystems can slot between existing levels without renumbering.
enum Rank : uint32_t {
  kUnranked = 0,        ///< tracked for AssertHeld, exempt from ordering
  kIngestLatch = 100,   ///< Dataset::ingest_mu_
  kTreeMem = 200,       ///< LsmTree::mem_mu_
  kTreeComponents = 210,///< LsmTree::components_mu_
  kLeaf = 300,          ///< cache/WAL/merge-queue/etc. leaf mutexes
  kPoolQueue = 310,     ///< ThreadPool::queue_mu_ (request server pool)
  kCacheShard = 400,    ///< BufferCache shard mutexes
  kPageStore = 450,     ///< PageStore::mu_ (page faults run under a shard)
  kDiskModel = 500,     ///< DiskModel::mu_ (deepest: modeled-I/O charges)
};

/// Asserts (abort with a diagnostic) that acquiring a capability of `rank`
/// respects the strict ordering against this thread's current ranked holds,
/// then records the hold. `cap` is the capability's address (identity for
/// Release/Holds); `name` appears in the violation diagnostic.
void OnAcquire(const void* cap, uint32_t rank, const char* name,
               bool shared) noexcept;

/// Removes the most recent hold of `cap` from this thread's stack (holds of
/// one capability are LIFO per thread). Unknown caps are ignored — a
/// capability whose acquire predates enabling the checker must not trip it.
void OnRelease(const void* cap) noexcept;

/// True iff this thread currently holds `cap`; when `exclusive_only`, a
/// shared hold does not count.
bool Holds(const void* cap, bool exclusive_only) noexcept;

/// Aborts with a diagnostic unless Holds(cap, excl). Backs the debug
/// AssertHeld()/AssertHeldShared() methods on Mutex/SharedMutex/RwLatch.
void AssertHolds(const void* cap, bool excl) noexcept;

/// Number of holds this thread's stack currently records (tests).
uint32_t HeldCount() noexcept;

}  // namespace lockrank
}  // namespace auxlsm
