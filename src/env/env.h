// Env bundles the simulated storage stack: page store, multi-queue I/O
// engine, buffer cache. Every index component does its I/O through an Env;
// the engine prices each page access on one device queue's virtual clock
// (io/io_engine.h), so concurrent maintenance bound to different queues
// overlaps in simulated time on multi-queue device profiles.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "env/buffer_cache.h"
#include "env/disk_model.h"
#include "env/page_store.h"
#include "fault/fault_injector.h"
#include "io/io_engine.h"

namespace auxlsm {

struct EnvOptions {
  size_t page_size = 4096;
  size_t cache_pages = 4096;         ///< 16 MiB with 4 KiB pages
  /// Lock stripes of the buffer cache (capped by the cache size; 0 is
  /// treated as 1). 1 = the single global LRU with exact LRU eviction
  /// order, bit-for-bit the legacy behavior. More stripes let concurrent
  /// writers, readers and merge workers fault pages without contending on
  /// one mutex, at the price of a per-stripe eviction order.
  size_t cache_shards = 1;
  /// Legacy single-head cost parameters; the device defaults to one queue of
  /// this profile, which reproduces the old DiskModel charging bit-for-bit.
  DiskProfile disk_profile = DiskProfile::Hdd();
  /// Number of independent device queues for disk_profile (1 = legacy).
  uint32_t io_queues = 1;
  /// Full device profile; when set it wins over disk_profile/io_queues
  /// (e.g. DeviceProfile::Nvme(4) for the multi-queue benches).
  std::optional<DeviceProfile> device_profile;

  /// Failpoint registry (fault/fault_injector.h) threaded through the
  /// storage seams: page append/read, file delete, cache miss fills, and
  /// the I/O engine's submissions. Null (default) disables injection — a
  /// single branch per seam, no behavior or modeled-time change. The
  /// injector must outlive the Env.
  FaultInjector* fault_injector = nullptr;

  /// Metrics registry (obs/metrics.h) attached to the storage I/O engine
  /// under the "io.storage" metric prefix. Null (default) disables metric
  /// recording with the same armed-but-quiet contract as the fault
  /// injector: attaching a registry never changes modeled time or DIGEST
  /// output. The registry must outlive the Env.
  obs::MetricsRegistry* metrics = nullptr;

  /// The device the engine is built from.
  DeviceProfile ResolvedDevice() const {
    return device_profile.has_value()
               ? *device_profile
               : DeviceProfile::FromDisk(disk_profile, io_queues);
  }
};

/// A no-fill scan's private run of consecutive pages of one file, starting
/// at first_page (Env::ReadPageNoFill). Holds at most read-ahead + 1 pages.
struct PageWindow {
  uint32_t first_page = 0;
  std::vector<PageData> pages;
};

class Env {
 public:
  explicit Env(EnvOptions options = EnvOptions());

  PageStore* store() { return &store_; }
  IoEngine* io() { return &io_; }
  BufferCache* cache() { return &cache_; }

  size_t page_size() const { return store_.page_size(); }

  IoStats stats() const { return io_.stats(); }

  /// Creates a new append-only page file.
  uint32_t CreateFile() { return store_.CreateFile(); }

  /// Appends a page, charging a sequential write to the calling thread's
  /// device queue.
  Status AppendPage(uint32_t file_id, std::string page, uint32_t* page_no) {
    if (options_.fault_injector != nullptr) {
      AUXLSM_RETURN_NOT_OK(
          options_.fault_injector->Hit(failpoints::kEnvAppendPage, &io_));
    }
    AUXLSM_RETURN_NOT_OK(store_.AppendPage(file_id, std::move(page), page_no));
    io_.ChargeWrite(1);
    return Status::OK();
  }

  /// Reads a page through the cache.
  Status ReadPage(uint32_t file_id, uint32_t page_no, PageData* out,
                  uint32_t readahead_pages = 0) {
    if (options_.fault_injector != nullptr) {
      AUXLSM_RETURN_NOT_OK(
          options_.fault_injector->Hit(failpoints::kEnvReadPage, &io_));
    }
    return cache_.Read(file_id, page_no, out, readahead_pages);
  }

  /// Reads a page for a scan that must not fill the cache (a merge reading
  /// the components it retires): served from `*window` when the page lies
  /// inside it, else the window is refilled from page_no by
  /// BufferCache::ReadNoFill. One kEnvReadPage consult either way, as
  /// ReadPage makes; a refill that misses makes the kCacheMissFill consult.
  Status ReadPageNoFill(uint32_t file_id, uint32_t page_no, PageData* out,
                        uint32_t readahead_pages, PageWindow* window) {
    if (options_.fault_injector != nullptr) {
      AUXLSM_RETURN_NOT_OK(
          options_.fault_injector->Hit(failpoints::kEnvReadPage, &io_));
    }
    if (page_no - window->first_page >= window->pages.size()) {
      window->first_page = page_no;
      AUXLSM_RETURN_NOT_OK(
          cache_.ReadNoFill(file_id, page_no, readahead_pages, &window->pages));
    }
    *out = window->pages[page_no - window->first_page];
    return Status::OK();
  }

  /// Deletes a file, evicts its cached pages, and sweeps every device
  /// queue's head position off it.
  Status DeleteFile(uint32_t file_id);

  const EnvOptions& options() const { return options_; }

 private:
  EnvOptions options_;
  PageStore store_;
  IoEngine io_;
  BufferCache cache_;
};

}  // namespace auxlsm
