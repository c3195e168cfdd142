#include "core/deleted_key.h"

#include "format/key_codec.h"

namespace auxlsm {

Status RunDeletedKeyMerge(Dataset* ds, SecondaryIndex* index,
                          const MergeRange& range) {
  auto comps = index->tree->Components();
  if (range.end > comps.size() || range.empty()) {
    return Status::InvalidArgument("bad merge range");
  }
  std::vector<DiskComponentPtr> picked(comps.begin() + range.begin,
                                       comps.begin() + range.end);
  std::vector<DiskComponentPtr> dk_picked;
  auto dk = index->deleted_keys->Components();
  if (dk.size() >= range.end) {
    dk_picked.assign(dk.begin() + range.begin, dk.begin() + range.end);
  }
  return RunDeletedKeyMergePicked(ds, index, picked, dk_picked);
}

Status RunDeletedKeyMergePicked(
    Dataset* ds, SecondaryIndex* index,
    const std::vector<DiskComponentPtr>& picked,
    const std::vector<DiskComponentPtr>& dk_picked) {
  LsmTree* tree = index->tree.get();
  if (picked.empty()) return Status::InvalidArgument("bad merge range");
  // Stable under concurrent flush installs: prepends never change the back.
  const bool includes_oldest = tree->IsOldestComponent(picked.back());

  MergeCursor::Options mo;
  mo.respect_bitmaps = true;
  mo.drop_antimatter = includes_oldest;
  mo.fill_cache = false;  // the merge retires its inputs
  MergeCursor cursor(picked, mo);
  AUXLSM_RETURN_NOT_OK(cursor.Init());

  // Per-entry point lookups against the deleted-key trees: an entry is
  // obsolete if its primary key was re-written with a newer timestamp.
  GetOptions gopts;
  gopts.use_blocked_bloom = ds->options().build_blocked_bloom;
  Status iter_status;
  auto next = [&](OwnedEntry* e) {
    while (cursor.Valid()) {
      const bool antimatter = cursor.antimatter();
      bool obsolete = false;
      if (!antimatter) {
        Slice pk;
        SplitSecondaryKey(cursor.key(), index->def.sk_width, nullptr, &pk);
        LookupResult res;
        iter_status = index->deleted_keys->GetRaw(pk, &res, gopts);
        if (!iter_status.ok()) return false;
        obsolete = res.found && res.entry.ts > cursor.ts();
      }
      if (obsolete) {
        iter_status = cursor.Next();
        if (!iter_status.ok()) return false;
        continue;
      }
      e->key = cursor.key().ToString();
      e->value = cursor.value().ToString();
      e->ts = cursor.ts();
      e->antimatter = antimatter;
      iter_status = cursor.Next();
      return iter_status.ok();
    }
    return false;
  };

  const ComponentId id{picked.back()->id().min_ts, picked.front()->id().max_ts};
  AUXLSM_ASSIGN_OR_RETURN(DiskComponentPtr merged,
                          tree->BuildComponent(id, next));
  AUXLSM_RETURN_NOT_OK(iter_status);
  AUXLSM_RETURN_NOT_OK(tree->ReplaceComponents(picked, merged));

  // The companion deleted-key tree merges in lock step.
  if (!dk_picked.empty()) {
    AUXLSM_RETURN_NOT_OK(index->deleted_keys->MergeComponents(dk_picked));
  }
  return Status::OK();
}

}  // namespace auxlsm
