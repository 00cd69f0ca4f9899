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
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace ser
{

/** The non-empty items of a comma-separated list ("a,,b" -> a, b). */
std::vector<std::string> splitList(const std::string &csv);

/** `text` as an unsigned integer in strtoull's `base` (0 also takes
 * 0x.. and 0..), or nullopt unless it starts with a digit, fits in
 * 64 bits and has nothing after the number: "-5" and "" are not
 * counts. */
std::optional<std::uint64_t> parseUnsigned(const std::string &text,
                                           int base = 10);

/** `text` as a finite double, or nullopt when it is empty, has
 * anything after the number, or reads as nan or inf. */
std::optional<double> parseFinite(const std::string &text);

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

    /** Parse a single "key=value" string; returns false if malformed. */
    bool parseAssignment(const std::string &token);

    void set(const std::string &key, const std::string &value);

    bool has(const std::string &key) const;

    /** Typed getters; fatal error on unparsable values (getUint
     * takes parseUnsigned's counts, getDouble parseFinite's
     * numbers). */
    std::string getString(const std::string &key,
                          const std::string &def) const;
    std::uint64_t getUint(const std::string &key,
                          std::uint64_t def) const;
    double getDouble(const std::string &key, double def) const;
    bool getBool(const std::string &key, bool def) const;

    /** splitList() of the key's value, or 'def' when it is absent. */
    std::vector<std::string>
    getList(const std::string &key, std::vector<std::string> def) const;

    /** All key=value pairs, sorted by key (for reproducibility logs). */
    std::vector<std::pair<std::string, std::string>> items() const;

    /** The keys set but never read through has() or a getter,
     * sorted. */
    std::vector<std::string> unread() const;

  private:
    /** Record 'key' as read; its value, or null when absent. */
    const std::string *lookup(const std::string &key) const;

    std::map<std::string, std::string> _values;
    mutable std::set<std::string> _read;
};

} // namespace ser

#endif // SER_SIM_CONFIG_HH
