#include "env/env.h"

namespace auxlsm {

Env::Env(EnvOptions options)
    : options_(options),
      store_(options.page_size),
      io_(options.ResolvedDevice()),
      cache_(&store_, &io_, options.cache_pages, options.cache_shards) {
  if (options_.fault_injector != nullptr) {
    io_.set_fault_injector(options_.fault_injector);
    cache_.set_fault_injector(options_.fault_injector);
  }
  if (options_.metrics != nullptr) {
    io_.set_metrics(options_.metrics, "io.storage");
  }
}

Status Env::DeleteFile(uint32_t file_id) {
  if (options_.fault_injector != nullptr) {
    AUXLSM_RETURN_NOT_OK(
        options_.fault_injector->Hit(failpoints::kEnvDeleteFile, &io_));
  }
  cache_.Evict(file_id);
  io_.ForgetFile(file_id);
  return store_.DeleteFile(file_id);
}

}  // namespace auxlsm
