// Bit-exact, Framework-independent text of an EvaluationReport, shared by
// the tests that compare reports of two Frameworks built from one workload.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "cayman/framework.h"

namespace cayman::testing {

inline std::string hex(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

/// A Framework-independent name for an instruction: function, block and
/// position in the block.
inline std::string instructionKey(const ir::Instruction* inst) {
  const ir::BasicBlock* block = inst->parent();
  size_t index = 0;
  while (block->instructions()[index].get() != inst) ++index;
  return block->parent()->name() + "/" + block->name() + "#" +
         std::to_string(index);
}

/// Every field of a config, pointers replaced by stable names, so configs
/// of two Frameworks built from the same workload compare equal exactly
/// when they are the same decision with bit-identical estimates.
inline std::string describe(const accel::AcceleratorConfig& config) {
  std::string out = config.region == nullptr
                        ? std::string("<none>")
                        : std::to_string(config.region->id()) + " " +
                              config.region->label();
  for (const accel::LoopConfig& loop : config.loops) {
    out += " loop " + loop.loop->header()->parent()->name() + "/" +
           loop.loop->name() + " x" + std::to_string(loop.unroll) +
           (loop.pipelined ? " pipelined" : "");
  }
  std::vector<std::string> ifaces;
  for (const auto& [inst, iface] : config.ifaces) {
    ifaces.push_back(
        instructionKey(inst) + " " + hls::ifaceSpelling(iface.kind) + " p" +
        std::to_string(iface.partitions) + " " +
        (iface.array != nullptr ? iface.array->name() : "-") + " " +
        std::to_string(iface.footprintBytes) + (iface.promoted ? " r" : ""));
  }
  std::sort(ifaces.begin(), ifaces.end());
  for (const std::string& iface : ifaces) out += " [" + iface + "]";
  out += " cycles " + hex(config.cycles) + " cpu " + hex(config.cpuCycles) +
         " area " + hex(config.areaUm2) + " counts " +
         std::to_string(config.numSeqBlocks) + "/" +
         std::to_string(config.numPipelinedRegions) + "/" +
         std::to_string(config.numCoupled) + "/" +
         std::to_string(config.numDecoupled) + "/" +
         std::to_string(config.numScratchpad);
  return out;
}

/// Every deterministic EvaluationReport field (selectionSeconds is wall
/// clock), doubles in hex so equal strings mean equal bits.
inline std::string describe(const EvaluationReport& r) {
  std::string out = "budget " + hex(r.budgetRatio) + " tAll " +
                    hex(r.totalCpuCycles) + "\nsolution area " +
                    hex(r.solution.areaUm2) + " accel " +
                    hex(r.solution.accelCycles) + " cpu " +
                    hex(r.solution.cpuCycles) + "\n";
  for (const accel::AcceleratorConfig& config : r.solution.accelerators) {
    out += "  " + describe(config) + "\n";
  }
  const merge::MergeResult& m = r.merging;
  out += "merge " + hex(m.areaBeforeUm2) + " " + hex(m.areaAfterUm2) + " " +
         std::to_string(m.mergeSteps) + " " +
         std::to_string(m.reusableAccelerators) + " " +
         hex(m.avgKernelsPerReusable) + " " +
         std::to_string(m.unitsExtracted) + " " +
         std::to_string(m.pairsEvaluated) + " " +
         std::to_string(m.pairsScored) + "\n";
  out += "speedups " + hex(r.caymanSpeedup) + " " + hex(r.noviaSpeedup) +
         " " + hex(r.qscoresSpeedup) + " " + hex(r.overNovia) + " " +
         hex(r.overQsCores) + "\ncounts " + std::to_string(r.numSeqBlocks) +
         "/" + std::to_string(r.numPipelinedRegions) + "/" +
         std::to_string(r.numCoupled) + "/" + std::to_string(r.numDecoupled) +
         "/" + std::to_string(r.numScratchpad) + " saving " +
         hex(r.areaSavingPercent) + "\n";
  return out;
}

}  // namespace cayman::testing
