// Contract checking for the pfair library.
//
// All scheduling code in this repository manipulates exact integer
// quantities; a violated invariant is always a programming error (or a
// malformed task system handed in by the caller), never a numerical
// artifact.  Contracts therefore stay enabled in release builds, and they
// throw `ContractViolation` rather than aborting so that the test suite can
// assert on misuse of the public API.  Faults in external input (task
// files, JSON documents, traces, capture bundles) are not bugs: they throw
// `InputError`, whose text is the positioned message alone.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace pfair {

/// Thrown when a precondition or invariant of the library is violated.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what)
      : std::logic_error(what) {}
};

/// Malformed or out-of-range external input.  what() is the positioned
/// message alone; ContractViolation stays for bugs.
class InputError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {

[[noreturn]] inline void contract_fail(const char* kind, const char* expr,
                                       const char* file, int line,
                                       const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw ContractViolation(os.str());
}

}  // namespace detail
}  // namespace pfair

/// Invariant / internal-consistency check.  Enabled in all build types.
#define PFAIR_ASSERT(expr)                                                  \
  do {                                                                      \
    if (!(expr))                                                            \
      ::pfair::detail::contract_fail("assertion", #expr, __FILE__,          \
                                     __LINE__, "");                         \
  } while (0)

/// Invariant check with an explanatory message (streamed into a string).
#define PFAIR_ASSERT_MSG(expr, msg)                                        \
  do {                                                                     \
    if (!(expr)) {                                                         \
      std::ostringstream pfair_assert_os_;                                 \
      pfair_assert_os_ << msg;                                             \
      ::pfair::detail::contract_fail("assertion", #expr, __FILE__,         \
                                     __LINE__, pfair_assert_os_.str());    \
    }                                                                      \
  } while (0)

/// Precondition on arguments of a public API entry point.
#define PFAIR_REQUIRE(expr, msg)                                           \
  do {                                                                     \
    if (!(expr)) {                                                         \
      std::ostringstream pfair_require_os_;                                \
      pfair_require_os_ << msg;                                            \
      ::pfair::detail::contract_fail("precondition", #expr, __FILE__,      \
                                     __LINE__, pfair_require_os_.str());   \
    }                                                                      \
  } while (0)

/// Check on external input: throws InputError carrying only `msg`.
#define PFAIR_REQUIRE_INPUT(expr, msg)                                     \
  do {                                                                     \
    if (!(expr)) {                                                         \
      std::ostringstream pfair_input_os_;                                  \
      pfair_input_os_ << msg;                                              \
      throw ::pfair::InputError(pfair_input_os_.str());                    \
    }                                                                      \
  } while (0)
