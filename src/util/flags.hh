/**
 * @file
 * Minimal command-line flag parsing for the CLI driver and tools:
 * `--name=value`, `--name value`, bare `--switch`, and positional
 * arguments. Unknown flags are an error surfaced to the caller so
 * typos don't silently fall back to defaults.
 */

#ifndef LONGSIGHT_UTIL_FLAGS_HH
#define LONGSIGHT_UTIL_FLAGS_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace longsight {

/**
 * Parsed command line.
 */
class Flags
{
  public:
    Flags(int argc, const char *const *argv);

    /** Positional (non-flag) arguments in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    bool has(const std::string &name) const;

    /** Typed getters with defaults; fatal() on unparsable values. */
    std::string getString(const std::string &name,
                          const std::string &def) const;
    int64_t getInt(const std::string &name, int64_t def) const;
    double getDouble(const std::string &name, double def) const;
    bool getBool(const std::string &name, bool def = false) const;

    /** Flags present on the command line that were never queried. */
    std::vector<std::string> unconsumed() const;

    /**
     * fatal() naming the first flag that was never queried. Call after
     * the last getter, so a typo exits with a message instead of
     * silently running with a default.
     */
    void rejectUnknown() const;

  private:
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
    mutable std::set<std::string> consumed_;
};

} // namespace longsight

#endif // LONGSIGHT_UTIL_FLAGS_HH
