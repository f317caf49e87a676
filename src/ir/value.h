// Value hierarchy: everything an instruction can reference as an operand.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/type.h"
#include "support/error.h"

namespace cayman::ir {

/// Discriminator for the Value hierarchy (cheap LLVM-style RTTI).
enum class ValueKind {
  Argument,
  ConstantInt,
  ConstantFP,
  GlobalArray,
  Instruction,
};

/// Base of the IR value hierarchy. Values are owned by their enclosing IR
/// container (Module / Function / BasicBlock) and referenced by raw pointer.
class Value {
 public:
  virtual ~Value() = default;

  Value(const Value&) = delete;
  Value& operator=(const Value&) = delete;

  ValueKind valueKind() const { return kind_; }
  const Type* type() const { return type_; }

  const std::string& name() const { return name_; }
  void setName(std::string name) { name_ = std::move(name); }

 protected:
  Value(ValueKind kind, const Type* type, std::string name)
      : kind_(kind), type_(type), name_(std::move(name)) {}

 private:
  ValueKind kind_;
  const Type* type_;
  std::string name_;
};

/// A formal parameter of a Function.
class Argument final : public Value {
 public:
  Argument(const Type* type, std::string name, unsigned index)
      : Value(ValueKind::Argument, type, std::move(name)), index_(index) {}

  unsigned index() const { return index_; }

 private:
  unsigned index_;
};

/// An integer (or boolean) literal. Interned per Module.
class ConstantInt final : public Value {
 public:
  ConstantInt(const Type* type, int64_t value)
      : Value(ValueKind::ConstantInt, type, ""), value_(value) {
    CAYMAN_ASSERT(type->isInteger(), "ConstantInt requires an integer type");
  }

  int64_t value() const { return value_; }

 private:
  int64_t value_;
};

/// A floating-point literal. Interned per Module.
class ConstantFP final : public Value {
 public:
  ConstantFP(const Type* type, double value)
      : Value(ValueKind::ConstantFP, type, ""), value_(value) {
    CAYMAN_ASSERT(type->isFloat(), "ConstantFP requires a float type");
  }

  double value() const { return value_; }

 private:
  double value_;
};

/// A module-level array in the flat simulated address space. Its value is a
/// pointer to the first element; the simulator assigns the base address.
class GlobalArray final : public Value {
 public:
  GlobalArray(const Type* elemType, uint64_t numElems, std::string name)
      : Value(ValueKind::GlobalArray, Type::ptr(), std::move(name)),
        elemType_(elemType),
        numElems_(numElems) {
    CAYMAN_ASSERT(elemType->sizeBytes() > 0, "array of void");
  }

  const Type* elemType() const { return elemType_; }
  uint64_t numElems() const { return numElems_; }
  uint64_t sizeBytes() const { return numElems_ * elemType_->sizeBytes(); }

  /// Optional initializer, one entry per element (integers stored exactly up
  /// to 2^53 which covers every index array we generate). Without an
  /// initializer the simulator fills the array with a deterministic pattern.
  bool hasInit() const { return hasInit_; }
  const std::vector<double>& init() const { return init_; }
  void setInit(std::vector<double> values);

 private:
  const Type* elemType_;
  uint64_t numElems_;
  bool hasInit_ = false;
  std::vector<double> init_;
};

/// Casting helpers in the spirit of llvm::dyn_cast, driven by ValueKind.
template <typename T>
bool isa(const Value* value);

template <>
inline bool isa<Argument>(const Value* v) {
  return v->valueKind() == ValueKind::Argument;
}
template <>
inline bool isa<ConstantInt>(const Value* v) {
  return v->valueKind() == ValueKind::ConstantInt;
}
template <>
inline bool isa<ConstantFP>(const Value* v) {
  return v->valueKind() == ValueKind::ConstantFP;
}
template <>
inline bool isa<GlobalArray>(const Value* v) {
  return v->valueKind() == ValueKind::GlobalArray;
}

template <typename T>
T* dynCast(Value* value) {
  return isa<T>(value) ? static_cast<T*>(value) : nullptr;
}
template <typename T>
const T* dynCast(const Value* value) {
  return isa<T>(value) ? static_cast<const T*>(value) : nullptr;
}

}  // namespace cayman::ir
