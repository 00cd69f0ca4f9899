/**
 * @file
 * A minimal JSON layer for run artifacts.
 *
 * Two halves:
 *  - JsonWriter: a streaming, comma-and-indent-managing emitter used
 *    to write run manifests and stats trees. Strings are escaped per
 *    RFC 8259; non-finite numbers (which JSON cannot represent) are
 *    emitted as null so the output always parses.
 *  - JsonValue / parseJson: a small recursive-descent parser used by
 *    the manifest checker and the round-trip tests. It accepts
 *    exactly the documents the writer produces (standard JSON).
 *
 * Neither half aims to be a general-purpose JSON library; they exist
 * so every experiment can leave behind machine-readable, diffable
 * artifacts without an external dependency.
 */

#ifndef SER_SIM_JSON_HH
#define SER_SIM_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace ser
{
namespace json
{

/** Escape a string for embedding in a JSON document (no quotes). */
std::string escape(std::string_view s);

/** Streaming JSON emitter with automatic commas and indentation.
 * An indent_step of 0 produces compact single-line output (JSONL). */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os, int indent_step = 2)
        : _os(os), _indentStep(indent_step)
    {
    }

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit the key of the next member (inside an object). */
    JsonWriter &key(std::string_view name);

    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v) { return value(std::string_view(v)); }
    JsonWriter &value(const std::string &v)
    {
        return value(std::string_view(v));
    }
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(int v) { return value(static_cast<std::int64_t>(v)); }
    JsonWriter &value(unsigned v)
    {
        return value(static_cast<std::uint64_t>(v));
    }
    JsonWriter &value(bool v);
    JsonWriter &nullValue();

    /** Splice an already-serialized JSON value verbatim (the caller
     * guarantees it is valid JSON; its own indentation is kept). */
    JsonWriter &rawValue(std::string_view json_text);

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    kv(std::string_view name, const T &v)
    {
        key(name);
        return value(v);
    }

  private:
    void beforeValue();
    void newline();

    std::ostream &_os;
    int _indentStep;
    int _depth = 0;
    /** Per-depth: whether a value has already been written there. */
    std::vector<char> _hasValue{false};
    bool _pendingKey = false;
};

/** A parsed JSON document node. */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &name) const;
};

/**
 * Parse a complete JSON document. Returns false (and sets *err when
 * given) on malformed input, including trailing garbage.
 */
bool parseJson(std::string_view text, JsonValue *out,
               std::string *err = nullptr);

} // namespace json
} // namespace ser

#endif // SER_SIM_JSON_HH
