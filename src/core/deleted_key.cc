#include "core/deleted_key.h"

#include "format/key_codec.h"

namespace auxlsm {

Status RunDeletedKeyMergePicked(
    Dataset* ds, SecondaryIndex* index,
    const std::vector<DiskComponentPtr>& picked,
    const std::vector<DiskComponentPtr>& dk_picked) {
  if (picked.empty()) return Status::InvalidArgument("bad merge range");
  // An entry is obsolete if its primary key was re-written with a newer
  // timestamp: one point lookup per entry against the deleted-key trees.
  GetOptions gopts;
  gopts.use_blocked_bloom = ds->options().build_blocked_bloom;
  MergeHooks hooks;
  hooks.keep = [&](const MergeCursor& cursor) -> Result<bool> {
    if (cursor.antimatter()) return true;
    Slice pk;
    SplitSecondaryKey(cursor.key(), index->def.sk_width, nullptr, &pk);
    LookupResult res;
    AUXLSM_RETURN_NOT_OK(index->deleted_keys->GetRaw(pk, &res, gopts));
    return !(res.found && res.entry.ts > cursor.ts());
  };
  AUXLSM_RETURN_NOT_OK(index->tree->MergeComponents(picked, hooks));

  // The companion deleted-key tree merges in lock step.
  if (!dk_picked.empty()) {
    AUXLSM_RETURN_NOT_OK(index->deleted_keys->MergeComponents(dk_picked));
  }
  return Status::OK();
}

}  // namespace auxlsm
