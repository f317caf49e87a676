// Reference merger: the seed-era greedy matching (bug-fixed), which rescans
// every cross-group unit pair each round and contracts the single best
// positive one. The oracle for merge::matchUnitsGraph and
// merge::AcceleratorMerger::run, which must reproduce its MergeResult value
// for value.
#pragma once

#include "merge/merger.h"

namespace cayman::oracles {

/// The signature both matching engines share, for tests that run each.
using MatchFn = double (*)(std::vector<merge::Unit>&, const hls::TechLibrary&,
                           merge::UnionFind&, merge::MatchStats&);

/// Full cross-group rescoring rounds picking the single best positive pair
/// (ties: lowest unit index pair). Mutates `units` and `groups` like
/// merge::matchUnitsGraph and returns the total net area saving.
double matchUnitsReference(std::vector<merge::Unit>& units,
                           const hls::TechLibrary& tech,
                           merge::UnionFind& groups, merge::MatchStats& stats);

/// AcceleratorMerger::run over matchUnitsReference, without trace counters.
merge::MergeResult mergeReference(const hls::TechLibrary& tech,
                                  const select::Solution& solution);

}  // namespace cayman::oracles
