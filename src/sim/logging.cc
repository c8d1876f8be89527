#include "sim/logging.hh"

#include <cstdlib>
#include <iostream>
#include <string>

namespace mbus {
namespace sim {

namespace {
LogLevel gLogLevel = LogLevel::Normal;
} // namespace

LogLevel
setLogLevel(LogLevel level)
{
    LogLevel prev = gLogLevel;
    gLogLevel = level;
    return prev;
}

LogLevel
logLevel()
{
    return gLogLevel;
}

namespace detail {

namespace {

/** Write a whole line with one insert: sweep threads share the
 *  streams, and piecewise inserts interleave mid-line. */
void
writeLine(std::ostream &os, const std::string &line)
{
    os << line << std::flush;
}

std::string
located(const char *tag, const std::string &msg, const char *file,
        int line)
{
    return tag + msg + "\n  at " + file + ":" + std::to_string(line) +
           "\n";
}

} // namespace

void
panicImpl(const char *file, int line, const std::string &msg)
{
    writeLine(std::cerr, located("panic: ", msg, file, line));
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    writeLine(std::cerr, located("fatal: ", msg, file, line));
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (gLogLevel != LogLevel::Quiet)
        writeLine(std::cerr, "warn: " + msg + "\n");
}

void
informImpl(const std::string &msg)
{
    if (gLogLevel != LogLevel::Quiet)
        writeLine(std::cout, "info: " + msg + "\n");
}

void
debugImpl(const std::string &msg)
{
    writeLine(std::cout, "debug: " + msg + "\n");
}

} // namespace detail

} // namespace sim
} // namespace mbus
