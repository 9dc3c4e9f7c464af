/**
 * @file
 * Strict option parsing shared by the command-line tools. Every
 * rejection prints "<tool>: <message naming the value>" and the tool's
 * usage to stderr, then exits with status 2, before any work starts.
 */

#ifndef MPC_TOOLS_CLI_HH
#define MPC_TOOLS_CLI_HH

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "system/config.hh"

namespace mpc::cli
{

/** What a tool's error messages need: its name and its usage text. */
struct Tool
{
    const char *name;   ///< message prefix ("mpclust")
    const char *argv0;  ///< the binary, as printUsage names it
    void (*printUsage)(std::FILE *out, const char *argv0);

    /** Print "name: @p why" and the usage to stderr, then exit 2. */
    [[noreturn]] void
    usageError(const std::string &why) const
    {
        std::fprintf(stderr, "%s: %s\n", name, why.c_str());
        printUsage(stderr, argv0);
        std::exit(2);
    }

    /** The value of integer option @p flag: all of @p text, within
     *  [@p lo, @p hi]; anything else is a usage error naming the
     *  value. */
    int
    intArg(const std::string &flag, const char *text, int lo,
           int hi = INT_MAX) const
    {
        char *end = nullptr;
        errno = 0;
        const long v = std::strtol(text, &end, 10);
        if (end == text || *end != '\0' || errno == ERANGE || v < lo ||
            v > hi) {
            const std::string range =
                hi == INT_MAX
                    ? ">= " + std::to_string(lo)
                    : std::to_string(lo) + ".." + std::to_string(hi);
            usageError("bad " + flag + " '" + text +
                       "' (expected an integer " + range + ")");
        }
        return static_cast<int>(v);
    }

    /** The machine preset --config @p name selects: base, 1ghz or
     *  exemplar; anything else is a usage error naming it. */
    sys::SystemConfig
    configArg(const std::string &name) const
    {
        if (name == "base")
            return sys::baseConfig();
        if (name == "1ghz")
            return sys::oneGHzConfig();
        if (name == "exemplar")
            return sys::exemplarConfig();
        usageError("bad --config '" + name +
                   "' (expected base|1ghz|exemplar)");
    }
};

} // namespace mpc::cli

#endif // MPC_TOOLS_CLI_HH
