#ifndef REFLEX_SIM_LOGGING_H_
#define REFLEX_SIM_LOGGING_H_

#include <cstdio>
#include <cstdlib>
#include <string>

namespace reflex::sim {

namespace internal {
[[noreturn]] void FatalMessage(const char* kind, const char* file, int line,
                               const std::string& msg);
std::string FormatV(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));
}  // namespace internal

}  // namespace reflex::sim

// Following the gem5 convention: `Fatal` is for user errors that make
// continuing impossible (bad configuration, inadmissible SLOs given to
// an API that demands validity); `Panic` is for internal invariant
// violations, i.e. bugs in this library.

/**
 * Terminates the process due to a user error (bad configuration or
 * arguments). Analogous to gem5's fatal().
 */
#define REFLEX_FATAL(...)                                  \
  ::reflex::sim::internal::FatalMessage(                   \
      "fatal", __FILE__, __LINE__,                         \
      ::reflex::sim::internal::FormatV(__VA_ARGS__))

/**
 * Terminates the process due to an internal invariant violation (a bug
 * in this library). Analogous to gem5's panic().
 */
#define REFLEX_PANIC(...)                                  \
  ::reflex::sim::internal::FatalMessage(                   \
      "panic", __FILE__, __LINE__,                         \
      ::reflex::sim::internal::FormatV(__VA_ARGS__))

/** Checks an invariant; panics with the stringified condition if false. */
#define REFLEX_CHECK(cond)                                           \
  do {                                                               \
    if (!(cond)) {                                                   \
      REFLEX_PANIC("check failed: %s", #cond);                       \
    }                                                                \
  } while (0)

#endif  // REFLEX_SIM_LOGGING_H_
