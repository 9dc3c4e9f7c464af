/**
 * @file
 * Minimal JSON support shared by the report/serialization layers: a
 * recursive-descent parser for the subset our own emitters produce
 * (objects, arrays, strings with the common escapes, numbers, bools,
 * null), plus the escaping/number-formatting helpers those emitters
 * share.
 *
 * This is deliberately not a general JSON library: inputs are our own
 * BENCH_*.json, MODEL_VS_MEASURED_*.json, FIG4_mshr.json and run-manifest
 * files, and the parser accepts what the writers emit (plus
 * whitespace). A file written without a manifest carries
 * "manifest": null, which parses as Value::T::Null.
 */

#ifndef MPC_COMMON_JSON_HH
#define MPC_COMMON_JSON_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mpc::json
{

/** A parsed JSON value (tagged union over the supported subset). */
struct Value
{
    enum class T { Null, Bool, Num, Str, Arr, Obj };
    T t = T::Null;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<Value> arr;
    std::map<std::string, Value> obj;

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *
    field(const std::string &name) const
    {
        const auto it = obj.find(name);
        return it == obj.end() ? nullptr : &it->second;
    }
};

/** Parse @p text, one value and nothing after it but whitespace, into
 *  @p out. @return false on malformed input. */
bool parse(const std::string &text, Value &out);

/** Append @p s to @p out as a quoted, escaped JSON string literal. */
void escape(std::string &out, const std::string &s);

/** Render a double so it round-trips exactly (%.17g), keeping a
 *  float-looking literal ("1.0", not "1"). */
std::string num(double v);

// --- typed field accessors (tolerant: default on absent/mistyped) ----

double numField(const Value &v, const std::string &name,
                double dflt = 0.0);
std::string strField(const Value &v, const std::string &name);

/** Render @p v as a fixed-width 16-digit lowercase hex string (the
 *  format every manifest hash uses, so hashes diff cleanly). */
std::string hex64(std::uint64_t v);

/**
 * Incremental JSON object builder behind the RunManifest every bench
 * artifact embeds (BENCH_*.json, MODEL_VS_MEASURED_*.json,
 * FIG4_mshr.json, SCALE64.json) and perfbench's result records.
 * Fields render in call order; strings are escaped; `raw` splices
 * pre-rendered JSON (a nested object or array) without quoting. str()
 * yields the complete object, no trailing newline.
 */
class ObjectWriter
{
  public:
    ObjectWriter &field(const std::string &name, const std::string &v);
    ObjectWriter &field(const std::string &name, const char *v);
    ObjectWriter &field(const std::string &name, double v);
    ObjectWriter &field(const std::string &name, std::uint64_t v);
    ObjectWriter &field(const std::string &name, int v);
    ObjectWriter &field(const std::string &name, bool v);

    /** Splice @p json (already-rendered value) under @p name. */
    ObjectWriter &raw(const std::string &name, const std::string &json);

    std::string str() const { return "{" + body_ + "}"; }

  private:
    void key(const std::string &name);
    std::string body_;
};

} // namespace mpc::json

#endif // MPC_COMMON_JSON_HH
