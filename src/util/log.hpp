#pragma once
// Minimal leveled logging. Off by default so library users (and benchmarks)
// see nothing unless they opt in; the CLI examples turn it on with -v.
//
// Thread-safe: the level is atomic and each message is formatted into a
// line buffer, then written to stderr in one call under a mutex with a
// thread tag ("[optalloc t2]"), so service workers can log without
// interleaving. The tag ordinal matches the "tid" field of the
// structured trace (obs::thread_ordinal).

#include <cstdarg>

namespace optalloc {

enum class LogLevel { kSilent = 0, kInfo = 1, kDebug = 2 };

/// Global verbosity (atomic; safe to flip while workers run).
void set_log_level(LogLevel level);
LogLevel log_level();

/// printf-style logging; a trailing newline is appended.
void log_info(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void log_debug(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace optalloc
