/**
 * @file
 * Manifest-comparison helpers for check_determinism: the canonical
 * masking of the two documented run-to-run-variable manifest fields,
 * and a structural JSON equality with a breadcrumb to the first
 * mismatch.
 *
 * Masking contract (the determinism fixtures' definition of
 * "identical"): every value inside a "timings_seconds" object is
 * wall-clock noise, and every value inside a "run_cache" object
 * depends on worker scheduling and cache tier state (off / miss /
 * hit / disk_hit) — both are masked; every other byte must agree,
 * including the masked objects' *keys*.
 */

#ifndef SER_TESTS_MANIFEST_MASK_HH
#define SER_TESTS_MANIFEST_MASK_HH

#include <string>

#include "sim/json.hh"

namespace ser
{
namespace tests
{

/** Mask the values (not the keys) of every timings_seconds object so
 * wall-clock noise does not participate in the comparison, and of
 * every run_cache object: which worker's sweep point misses and
 * which hits depends on scheduling (and on --no-run-cache /
 * --cache-dir), while every simulated result must not. */
inline void
maskTimings(json::JsonValue &v)
{
    using json::JsonValue;
    if (v.isObject()) {
        for (auto &member : v.object) {
            if (member.first == "timings_seconds" &&
                member.second.isObject()) {
                for (auto &phase : member.second.object) {
                    phase.second = JsonValue{};
                    phase.second.kind = JsonValue::Kind::Number;
                }
            } else if (member.first == "run_cache" &&
                       member.second.isObject()) {
                for (auto &section : member.second.object) {
                    section.second = JsonValue{};
                    section.second.kind = JsonValue::Kind::String;
                    section.second.string = "masked";
                }
            } else {
                maskTimings(member.second);
            }
        }
    } else if (v.isArray()) {
        for (auto &elem : v.array)
            maskTimings(elem);
    }
}

/** Structural equality with a breadcrumb for the first mismatch. */
inline bool
jsonEqual(const json::JsonValue &a, const json::JsonValue &b,
          const std::string &path, std::string *where)
{
    using json::JsonValue;
    if (a.kind != b.kind) {
        *where = path + ": kind differs";
        return false;
    }
    switch (a.kind) {
      case JsonValue::Kind::Null:
        return true;
      case JsonValue::Kind::Bool:
        if (a.boolean != b.boolean) {
            *where = path + ": boolean differs";
            return false;
        }
        return true;
      case JsonValue::Kind::Number:
        if (a.number != b.number) {
            *where = path + ": " + std::to_string(a.number) +
                     " != " + std::to_string(b.number);
            return false;
        }
        return true;
      case JsonValue::Kind::String:
        if (a.string != b.string) {
            *where = path + ": '" + a.string + "' != '" + b.string +
                     "'";
            return false;
        }
        return true;
      case JsonValue::Kind::Array:
        if (a.array.size() != b.array.size()) {
            *where = path + ": array length " +
                     std::to_string(a.array.size()) + " != " +
                     std::to_string(b.array.size());
            return false;
        }
        for (std::size_t i = 0; i < a.array.size(); ++i) {
            if (!jsonEqual(a.array[i], b.array[i],
                           path + "[" + std::to_string(i) + "]",
                           where))
                return false;
        }
        return true;
      case JsonValue::Kind::Object: {
        auto ia = a.object.begin(), ib = b.object.begin();
        for (; ia != a.object.end() && ib != b.object.end();
             ++ia, ++ib) {
            if (ia->first != ib->first) {
                *where = path + ": member '" + ia->first + "' vs '" +
                         ib->first + "'";
                return false;
            }
            if (!jsonEqual(ia->second, ib->second,
                           path + "." + ia->first, where))
                return false;
        }
        if (ia != a.object.end() || ib != b.object.end()) {
            *where = path + ": object member counts differ";
            return false;
        }
        return true;
      }
    }
    return true;
}

} // namespace tests
} // namespace ser

#endif // SER_TESTS_MANIFEST_MASK_HH
