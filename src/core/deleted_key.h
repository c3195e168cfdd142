// Merge-time cleanup for the deleted-key B+-tree strategy (§4.1): when a
// secondary index's components merge, each surviving entry is validated
// against the index's own deleted-key trees. The deleted-key trees are
// duplicated per secondary index (unlike the single primary key index of
// §4.4), which is exactly the overhead Fig 15b measures.
#pragma once

#include "core/dataset.h"

namespace auxlsm {

/// Merges the captured secondary-index components (LsmTree::MergeComponents
/// with a `keep` hook that drops entries superseded in the deleted-key
/// trees) and, in lock step, the captured companion deleted-key components
/// (empty = companion not merged). Picks are by identity, not position — a
/// flush install racing a decoupled merge-queue job shifts positional
/// ranges but not identities; ReplaceComponents fails safe if the picks are
/// no longer current.
Status RunDeletedKeyMergePicked(Dataset* dataset, SecondaryIndex* index,
                                const std::vector<DiskComponentPtr>& picked,
                                const std::vector<DiskComponentPtr>& dk_picked);

}  // namespace auxlsm
