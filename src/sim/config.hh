/**
 * @file
 * A tiny key=value configuration/parameter store.
 *
 * Used by examples and benches to override simulator parameters from
 * the command line without a heavyweight options library. Keys are
 * dotted strings ("cpu.iq_entries"); values are parsed on demand.
 */

#ifndef SER_SIM_CONFIG_HH
#define SER_SIM_CONFIG_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace ser
{

/** The non-empty items of a comma-separated list ("a,,b" -> a, b). */
std::vector<std::string> splitList(const std::string &csv);

/**
 * String-keyed parameter store with typed accessors. has() and every
 * getter record the key as read, so unread() can name the keys a
 * binary never looked at (a typo'd key). Recording makes reads
 * mutate, so a Config is not safe to read from several threads at
 * once.
 */
class Config
{
  public:
    Config() = default;

    /** Parse "key=value" tokens (e.g. from argv); tokens without '='
     * are collected as positional arguments. */
    void parseArgs(int argc, char **argv);

    /** Parse a single "key=value" string; returns false if malformed. */
    bool parseAssignment(const std::string &token);

    void set(const std::string &key, const std::string &value);

    bool has(const std::string &key) const;

    /** Typed getters; fatal error on unparsable values. */
    std::string getString(const std::string &key,
                          const std::string &def) const;
    std::int64_t getInt(const std::string &key, std::int64_t def) const;
    std::uint64_t getUint(const std::string &key,
                          std::uint64_t def) const;
    double getDouble(const std::string &key, double def) const;
    bool getBool(const std::string &key, bool def) const;

    /** splitList() of the key's value, or 'def' when it is absent. */
    std::vector<std::string>
    getList(const std::string &key, std::vector<std::string> def) const;

    const std::vector<std::string> &positional() const
    {
        return _positional;
    }

    /** All key=value pairs, sorted by key (for reproducibility logs). */
    std::vector<std::pair<std::string, std::string>> items() const;

    /** The keys set but never read through has() or a getter,
     * sorted. */
    std::vector<std::string> unread() const;

  private:
    /** Record 'key' as read; its value, or null when absent. */
    const std::string *lookup(const std::string &key) const;

    std::map<std::string, std::string> _values;
    std::vector<std::string> _positional;
    mutable std::set<std::string> _read;
};

} // namespace ser

#endif // SER_SIM_CONFIG_HH
