#include "ir/value.h"

namespace cayman::ir {

void GlobalArray::setInit(std::vector<double> values) {
  CAYMAN_ASSERT(values.size() == numElems_,
                "initializer size mismatch for " + name());
  init_ = std::move(values);
  hasInit_ = true;
}

}  // namespace cayman::ir
