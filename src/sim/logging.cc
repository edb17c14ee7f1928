#include "sim/logging.h"

#include <cstdarg>
#include <cstdio>

namespace reflex::sim {

namespace internal {

void FatalMessage(const char* kind, const char* file, int line,
                  const std::string& msg) {
  std::fprintf(stderr, "[%s %s:%d] %s\n", kind, file, line, msg.c_str());
  std::abort();
}

std::string FormatV(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  char buf[1024];
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return std::string(buf);
}

}  // namespace internal

}  // namespace reflex::sim
