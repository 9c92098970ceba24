#include "util/error.hpp"

namespace tr::detail {

void require_fail(const std::string& message) { throw Error(message); }

}  // namespace tr::detail
