/**
 * @file
 * Minimal JSON writer and reader shared by the machine-readable
 * artifact emitters (BENCH_throughput.json, ibp_report.json) and the
 * `ibp` CLI.
 *
 * The writer is a streaming emitter with an explicit structure stack:
 * commas, quoting and indentation are handled here so call sites read
 * like the document they produce.  Doubles are printed with %.17g,
 * which round-trips every finite IEEE-754 double exactly — the golden
 * report comparisons rely on that.
 *
 * The reader parses the subset these tools emit (objects, arrays,
 * strings with the standard escapes, numbers, booleans, null) into a
 * JsonValue tree.  Malformed input is a user error: fatal(), matching
 * the trace-reader contract.
 */

#ifndef IBP_UTIL_JSON_HH_
#define IBP_UTIL_JSON_HH_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ibp::util {

/** Streaming JSON emitter. */
class JsonWriter
{
  public:
    /** @param indent spaces per nesting level (0 = compact). */
    explicit JsonWriter(std::ostream &out, int indent = 2);

    /** Destructor checks the structure stack was fully closed. */
    ~JsonWriter();

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; the next emission is its value. */
    JsonWriter &key(const std::string &name);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(int v);
    JsonWriter &value(unsigned v);
    JsonWriter &value(bool v);

  private:
    void separate(); ///< comma/newline/indent before a new element
    void raw(const std::string &text);

    std::ostream &out_;
    int indent_;
    /** One frame per open container: element count + kind. */
    struct Frame
    {
        char kind;          ///< '{' or '['
        bool empty = true;
        bool keyPending = false;
    };
    std::vector<Frame> stack_;
};

/** Quote and escape @p s as a JSON string literal. */
std::string jsonQuote(const std::string &s);

/** A parsed JSON document node. */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }

    /** Typed accessors; fatal() on kind mismatch. */
    bool asBool() const;
    double asDouble() const;
    std::uint64_t asUint() const;
    const std::string &asString() const;
    const std::vector<JsonValue> &asArray() const;
    const std::map<std::string, JsonValue> &asObject() const;

    /** Object member lookup; fatal() when missing (get) or a
     *  Null-kinded sentinel reference when optional (find). */
    const JsonValue &get(const std::string &name) const;
    const JsonValue *find(const std::string &name) const;

    /** Membership/shape helpers that don't abort. */
    bool has(const std::string &name) const;

    // Construction (parser + tests).
    static JsonValue makeNull();
    static JsonValue makeBool(bool b);
    static JsonValue makeNumber(double d);
    static JsonValue makeString(std::string s);
    static JsonValue makeArray(std::vector<JsonValue> elements);
    static JsonValue makeObject(std::map<std::string, JsonValue> m);

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::map<std::string, JsonValue> object_;
};

/** Parse one JSON document from @p in; fatal() on malformed input. */
JsonValue parseJson(std::istream &in);

/** Parse a JSON document held in a string. */
JsonValue parseJson(const std::string &text);

} // namespace ibp::util

#endif // IBP_UTIL_JSON_HH_
