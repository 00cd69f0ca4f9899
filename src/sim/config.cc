#include "config.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "logging.hh"

namespace ser
{

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> items;
    std::istringstream is(csv);
    std::string item;
    while (std::getline(is, item, ','))
        if (!item.empty())
            items.push_back(item);
    return items;
}

std::optional<std::uint64_t>
parseUnsigned(const std::string &text, int base)
{
    // strtoull would skip leading blanks and negate a leading '-'.
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    std::uint64_t v = std::strtoull(text.c_str(), &end, base);
    if (*end != '\0' || errno == ERANGE)
        return std::nullopt;
    return v;
}

std::optional<double>
parseFinite(const std::string &text)
{
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !std::isfinite(v))
        return std::nullopt;
    return v;
}

bool
Config::parseAssignment(const std::string &token)
{
    auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0)
        return false;
    set(token.substr(0, eq), token.substr(eq + 1));
    return true;
}

void
Config::set(const std::string &key, const std::string &value)
{
    _values[key] = value;
}

const std::string *
Config::lookup(const std::string &key) const
{
    _read.insert(key);
    auto it = _values.find(key);
    return it == _values.end() ? nullptr : &it->second;
}

bool
Config::has(const std::string &key) const
{
    return lookup(key) != nullptr;
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    const std::string *value = lookup(key);
    return value ? *value : def;
}

std::uint64_t
Config::getUint(const std::string &key, std::uint64_t def) const
{
    const std::string *value = lookup(key);
    if (!value)
        return def;
    std::optional<std::uint64_t> v = parseUnsigned(*value, 0);
    if (!v)
        SER_FATAL("config: {} = '{}' is not an unsigned integer", key,
                  *value);
    return *v;
}

double
Config::getDouble(const std::string &key, double def) const
{
    const std::string *value = lookup(key);
    if (!value)
        return def;
    std::optional<double> v = parseFinite(*value);
    if (!v)
        SER_FATAL("config: {} = '{}' is not a number", key, *value);
    return *v;
}

bool
Config::getBool(const std::string &key, bool def) const
{
    const std::string *value = lookup(key);
    if (!value)
        return def;
    std::string v = *value;
    std::transform(v.begin(), v.end(), v.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    SER_FATAL("config: {} = '{}' is not a boolean", key, *value);
}

std::vector<std::string>
Config::getList(const std::string &key,
                std::vector<std::string> def) const
{
    const std::string *value = lookup(key);
    return value ? splitList(*value) : def;
}

std::vector<std::pair<std::string, std::string>>
Config::items() const
{
    return {_values.begin(), _values.end()};
}

std::vector<std::string>
Config::unread() const
{
    std::vector<std::string> keys;
    for (const auto &entry : _values)
        if (!_read.count(entry.first))
            keys.push_back(entry.first);
    return keys;
}

} // namespace ser
