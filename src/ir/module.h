// Module: the top-level IR container for one application.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/function.h"

namespace cayman::ir {

class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  const std::string& name() const { return name_; }

  // --- Functions ------------------------------------------------------------
  Function* addFunction(std::string name, const Type* returnType,
                        std::vector<std::pair<const Type*, std::string>> params);
  Function* functionByName(std::string_view name) const;
  const std::vector<std::unique_ptr<Function>>& functions() const {
    return functions_;
  }
  /// The application entry point: the function named "main", or the first
  /// function when no "main" exists.
  Function* entryFunction() const;

  // --- Globals ---------------------------------------------------------------
  GlobalArray* addGlobal(std::string name, const Type* elemType,
                         uint64_t numElems);
  GlobalArray* globalByName(std::string_view name) const;
  const std::vector<std::unique_ptr<GlobalArray>>& globals() const {
    return globals_;
  }

  // --- Interned constants ----------------------------------------------------
  ConstantInt* constInt(const Type* type, int64_t value);
  ConstantInt* constI1(bool value) { return constInt(Type::i1(), value); }
  ConstantInt* constI32(int64_t value) { return constInt(Type::i32(), value); }
  ConstantInt* constI64(int64_t value) { return constInt(Type::i64(), value); }
  ConstantFP* constFP(const Type* type, double value);
  ConstantFP* constF64(double value) { return constFP(Type::f64(), value); }

 private:
  std::string name_;
  std::vector<std::unique_ptr<Function>> functions_;
  std::vector<std::unique_ptr<GlobalArray>> globals_;
  std::map<std::pair<const Type*, int64_t>, std::unique_ptr<ConstantInt>>
      intConstants_;
  // Keyed by bit pattern, not double: NaN breaks std::map's strict weak
  // ordering (NaN compares equivalent to everything), so a NaN literal from
  // parsed input could alias an unrelated interned constant.
  std::map<std::pair<const Type*, uint64_t>, std::unique_ptr<ConstantFP>>
      fpConstants_;
};

}  // namespace cayman::ir
