#include "sim/memory.h"

#include <cstring>

#include "support/error.h"

namespace cayman::sim {

namespace {

/// SplitMix64: deterministic fill for uninitialized globals.
uint64_t splitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Writes elements 0, 1, ... of an array of T at `out`, in that order.
template <typename T, typename Element>
void fill(std::byte* out, uint64_t count, Element&& element) {
  for (uint64_t i = 0; i < count; ++i) {
    const T value = element(i);
    std::memcpy(out + i * sizeof(T), &value, sizeof(T));
  }
}

}  // namespace

SimMemory::SimMemory(const ir::Module& module) {
  uint64_t cursor = kBase;
  for (const auto& global : module.globals()) {
    cursor = (cursor + 63) & ~uint64_t{63};  // 64-byte aligned arrays
    bases_[global.get()] = cursor;
    cursor += global->sizeBytes();
  }
  bytes_.assign(cursor - kBase, std::byte{0});

  // Explicit initializers, else a SplitMix64 sequence drawn element by
  // element across the uninitialized globals, written as the typed stores
  // of storeInt/storeFloat would write them.
  uint64_t seed = 0xCA51A0FFULL;
  for (const auto& global : module.globals()) {
    const uint64_t n = global->numElems();
    const std::vector<double>* init =
        global->hasInit() ? &global->init() : nullptr;
    // Uniform in [0, 1): keeps accumulations numerically tame.
    auto real = [&](uint64_t i) {
      return init != nullptr
                 ? (*init)[i]
                 : static_cast<double>(splitMix64(seed) >> 11) * 0x1.0p-53;
    };
    // Small non-negative integers, safe as indices into the array. The
    // parser keeps initializers of integer arrays inside int64's range.
    auto integer = [&](uint64_t i) {
      return init != nullptr ? static_cast<int64_t>((*init)[i])
                             : static_cast<int64_t>(splitMix64(seed) % n);
    };
    std::byte* out = bytes_.data() + (bases_[global.get()] - kBase);
    switch (global->elemType()->kind()) {
      case ir::Type::Kind::F32:
        fill<float>(out, n, [&](uint64_t i) {
          return static_cast<float>(real(i));
        });
        break;
      case ir::Type::Kind::F64:
        fill<double>(out, n, real);
        break;
      case ir::Type::Kind::I1:
        fill<uint8_t>(out, n, [&](uint64_t i) {
          return static_cast<uint8_t>(integer(i) != 0);
        });
        break;
      case ir::Type::Kind::I32:
        fill<int32_t>(out, n, [&](uint64_t i) {
          return static_cast<int32_t>(integer(i));
        });
        break;
      case ir::Type::Kind::I64:
      case ir::Type::Kind::Ptr:
        fill<int64_t>(out, n, integer);
        break;
      default:
        CAYMAN_ASSERT(false, "global of unsupported type " + global->name());
    }
  }
  initialBytes_ = bytes_;
}

void SimMemory::reset() { bytes_ = initialBytes_; }

uint64_t SimMemory::baseOf(const ir::GlobalArray* global) const {
  auto it = bases_.find(global);
  CAYMAN_ASSERT(it != bases_.end(), "global not laid out: " + global->name());
  return it->second;
}

void SimMemory::throwOutOfBounds(uint64_t address) {
  throw Error("simulated memory access out of bounds at address " +
              std::to_string(address));
}

const std::byte* SimMemory::at(uint64_t address, size_t size) const {
  if (address < kBase || address - kBase + size > bytes_.size()) {
    throwOutOfBounds(address);
  }
  return bytes_.data() + (address - kBase);
}

std::byte* SimMemory::at(uint64_t address, size_t size) {
  return const_cast<std::byte*>(
      static_cast<const SimMemory*>(this)->at(address, size));
}

int64_t SimMemory::loadInt(uint64_t address, const ir::Type* type) const {
  switch (type->kind()) {
    case ir::Type::Kind::I1: {
      uint8_t v;
      std::memcpy(&v, at(address, 1), 1);
      return v != 0;
    }
    case ir::Type::Kind::I32: {
      int32_t v;
      std::memcpy(&v, at(address, 4), 4);
      return v;
    }
    case ir::Type::Kind::I64:
    case ir::Type::Kind::Ptr: {
      int64_t v;
      std::memcpy(&v, at(address, 8), 8);
      return v;
    }
    default:
      CAYMAN_ASSERT(false, "loadInt of non-integer type");
  }
}

double SimMemory::loadFloat(uint64_t address, const ir::Type* type) const {
  if (type->kind() == ir::Type::Kind::F32) {
    float v;
    std::memcpy(&v, at(address, 4), 4);
    return v;
  }
  CAYMAN_ASSERT(type->kind() == ir::Type::Kind::F64,
                "loadFloat of non-float type");
  double v;
  std::memcpy(&v, at(address, 8), 8);
  return v;
}

void SimMemory::storeInt(uint64_t address, const ir::Type* type,
                         int64_t value) {
  switch (type->kind()) {
    case ir::Type::Kind::I1: {
      uint8_t v = value != 0;
      std::memcpy(at(address, 1), &v, 1);
      return;
    }
    case ir::Type::Kind::I32: {
      int32_t v = static_cast<int32_t>(value);
      std::memcpy(at(address, 4), &v, 4);
      return;
    }
    case ir::Type::Kind::I64:
    case ir::Type::Kind::Ptr: {
      std::memcpy(at(address, 8), &value, 8);
      return;
    }
    default:
      CAYMAN_ASSERT(false, "storeInt of non-integer type");
  }
}

void SimMemory::storeFloat(uint64_t address, const ir::Type* type,
                           double value) {
  if (type->kind() == ir::Type::Kind::F32) {
    float v = static_cast<float>(value);
    std::memcpy(at(address, 4), &v, 4);
    return;
  }
  CAYMAN_ASSERT(type->kind() == ir::Type::Kind::F64,
                "storeFloat of non-float type");
  std::memcpy(at(address, 8), &value, 8);
}

double SimMemory::readElemF64(const ir::GlobalArray* global,
                              uint64_t index) const {
  return loadFloat(baseOf(global) + index * global->elemType()->sizeBytes(),
                   global->elemType());
}

int64_t SimMemory::readElemI64(const ir::GlobalArray* global,
                               uint64_t index) const {
  return loadInt(baseOf(global) + index * global->elemType()->sizeBytes(),
                 global->elemType());
}

}  // namespace cayman::sim
