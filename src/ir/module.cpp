#include "ir/module.h"

#include <cstring>

namespace cayman::ir {

Function* Module::addFunction(
    std::string name, const Type* returnType,
    std::vector<std::pair<const Type*, std::string>> params) {
  CAYMAN_ASSERT(functionByName(name) == nullptr,
                "duplicate function " + name);
  functions_.push_back(std::make_unique<Function>(this, std::move(name),
                                                  returnType,
                                                  std::move(params)));
  return functions_.back().get();
}

Function* Module::functionByName(std::string_view name) const {
  for (const auto& f : functions_) {
    if (f->name() == name) return f.get();
  }
  return nullptr;
}

Function* Module::entryFunction() const {
  if (Function* main = functionByName("main")) return main;
  CAYMAN_ASSERT(!functions_.empty(), "module has no functions");
  return functions_.front().get();
}

GlobalArray* Module::addGlobal(std::string name, const Type* elemType,
                               uint64_t numElems) {
  CAYMAN_ASSERT(globalByName(name) == nullptr, "duplicate global " + name);
  globals_.push_back(
      std::make_unique<GlobalArray>(elemType, numElems, std::move(name)));
  return globals_.back().get();
}

GlobalArray* Module::globalByName(std::string_view name) const {
  for (const auto& g : globals_) {
    if (g->name() == name) return g.get();
  }
  return nullptr;
}

ConstantInt* Module::constInt(const Type* type, int64_t value) {
  auto key = std::make_pair(type, value);
  auto it = intConstants_.find(key);
  if (it == intConstants_.end()) {
    it = intConstants_
             .emplace(key, std::make_unique<ConstantInt>(type, value))
             .first;
  }
  return it->second.get();
}

ConstantFP* Module::constFP(const Type* type, double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  auto key = std::make_pair(type, bits);
  auto it = fpConstants_.find(key);
  if (it == fpConstants_.end()) {
    it = fpConstants_.emplace(key, std::make_unique<ConstantFP>(type, value))
             .first;
  }
  return it->second.get();
}

}  // namespace cayman::ir
