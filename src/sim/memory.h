// Flat byte-addressed memory for the IR interpreter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "ir/module.h"

namespace cayman::sim {

/// Lays the module's globals out in one flat address space, applies explicit
/// initializers, and fills the rest with a deterministic pseudo-random
/// pattern so profiles are reproducible.
class SimMemory {
 public:
  explicit SimMemory(const ir::Module& module);

  uint64_t baseOf(const ir::GlobalArray* global) const;

  /// Restores every byte to the post-construction image (explicit
  /// initializers + deterministic fill), discarding all stores since. Global
  /// base addresses are unaffected, so decoded micro-op streams that folded
  /// them into immediates stay valid.
  void reset();

  int64_t loadInt(uint64_t address, const ir::Type* type) const;
  double loadFloat(uint64_t address, const ir::Type* type) const;
  void storeInt(uint64_t address, const ir::Type* type, int64_t value);
  void storeFloat(uint64_t address, const ir::Type* type, double value);

  /// Typed element accessors for tests and workload validation.
  double readElemF64(const ir::GlobalArray* global, uint64_t index) const;
  int64_t readElemI64(const ir::GlobalArray* global, uint64_t index) const;

  size_t sizeBytes() const { return bytes_.size(); }

  /// Address of the first byte of the image.
  static constexpr uint64_t kBase = 0x1000;

  /// The byte image, for the decoded interpreter to hold in registers over a
  /// run and bounds-check against sizeBytes() itself. The pointer stays valid
  /// for the memory's lifetime: reset() copies into the same storage.
  std::byte* data() { return bytes_.data(); }

  /// Throws the Error every out-of-bounds access raises.
  [[noreturn]] static void throwOutOfBounds(uint64_t address);

 private:
  const std::byte* at(uint64_t address, size_t size) const;
  std::byte* at(uint64_t address, size_t size);

  std::vector<std::byte> bytes_;
  std::vector<std::byte> initialBytes_;
  std::map<const ir::GlobalArray*, uint64_t> bases_;
};

}  // namespace cayman::sim
