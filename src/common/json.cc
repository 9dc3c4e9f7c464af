#include "common/json.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace mpc::json
{

void
escape(std::string &out, const std::string &s)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    out += '"';
}

std::string
num(double v)
{
    // %.17g round-trips IEEE doubles exactly.
    std::string s = strprintf("%.17g", v);
    if (s.find_first_of(".eEn") == std::string::npos)
        s += ".0";  // keep a float-looking literal
    return s;
}

namespace
{

struct Parser
{
    const std::string &s;
    size_t i = 0;
    bool ok = true;

    void skipWs()
    {
        while (i < s.size() && (s[i] == ' ' || s[i] == '\n' ||
                                s[i] == '\t' || s[i] == '\r'))
            ++i;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (i < s.size() && s[i] == c) {
            ++i;
            return true;
        }
        ok = false;
        return false;
    }

    Value
    parseValue()
    {
        Value v;
        skipWs();
        if (!ok || i >= s.size()) {
            ok = false;
            return v;
        }
        const char c = s[i];
        if (c == '{') {
            ++i;
            v.t = Value::T::Obj;
            skipWs();
            if (i < s.size() && s[i] == '}') {
                ++i;
                return v;
            }
            for (;;) {
                Value key = parseValue();
                if (!ok || key.t != Value::T::Str || !consume(':')) {
                    ok = false;
                    return v;
                }
                v.obj[key.str] = parseValue();
                if (!ok)
                    return v;
                skipWs();
                if (i < s.size() && s[i] == ',') {
                    ++i;
                    continue;
                }
                consume('}');
                return v;
            }
        } else if (c == '[') {
            ++i;
            v.t = Value::T::Arr;
            skipWs();
            if (i < s.size() && s[i] == ']') {
                ++i;
                return v;
            }
            for (;;) {
                v.arr.push_back(parseValue());
                if (!ok)
                    return v;
                skipWs();
                if (i < s.size() && s[i] == ',') {
                    ++i;
                    continue;
                }
                consume(']');
                return v;
            }
        } else if (c == '"') {
            ++i;
            v.t = Value::T::Str;
            while (i < s.size() && s[i] != '"') {
                if (s[i] == '\\' && i + 1 < s.size()) {
                    ++i;
                    switch (s[i]) {
                      case 'n': v.str += '\n'; break;
                      case 't': v.str += '\t'; break;
                      case 'u':
                        if (i + 4 < s.size()) {
                            v.str += static_cast<char>(
                                std::strtol(s.substr(i + 1, 4).c_str(),
                                            nullptr, 16));
                            i += 4;
                        } else {
                            ok = false;
                        }
                        break;
                      default: v.str += s[i]; break;
                    }
                    ++i;
                } else {
                    v.str += s[i++];
                }
            }
            if (!consume('"'))
                ok = false;
            return v;
        } else if (c == 't' || c == 'f' || c == 'n') {
            const std::string word = c == 't'   ? "true"
                                     : c == 'f' ? "false"
                                                : "null";
            if (s.compare(i, word.size(), word) == 0) {
                if (c != 'n') {
                    v.t = Value::T::Bool;
                    v.b = c == 't';
                }
                i += word.size();
            } else {
                ok = false;
            }
            return v;
        } else {
            char *end = nullptr;
            v.t = Value::T::Num;
            v.num = std::strtod(s.c_str() + i, &end);
            if (end == s.c_str() + i)
                ok = false;
            else
                i = static_cast<size_t>(end - s.c_str());
            return v;
        }
    }
};

} // namespace

bool
parse(const std::string &text, Value &out)
{
    Parser parser{text};
    out = parser.parseValue();
    // One value per text: only whitespace may follow it.
    parser.skipWs();
    return parser.ok && parser.i == text.size();
}

double
numField(const Value &v, const std::string &name, double dflt)
{
    const Value *f = v.field(name);
    return f != nullptr && f->t == Value::T::Num ? f->num : dflt;
}

std::string
strField(const Value &v, const std::string &name)
{
    const Value *f = v.field(name);
    return f != nullptr && f->t == Value::T::Str ? f->str
                                                 : std::string();
}

std::string
hex64(std::uint64_t v)
{
    return strprintf("%016llx", static_cast<unsigned long long>(v));
}

// --- ObjectWriter ----------------------------------------------------

void
ObjectWriter::key(const std::string &name)
{
    if (!body_.empty())
        body_ += ", ";
    escape(body_, name);
    body_ += ": ";
}

ObjectWriter &
ObjectWriter::field(const std::string &name, const std::string &v)
{
    key(name);
    escape(body_, v);
    return *this;
}

ObjectWriter &
ObjectWriter::field(const std::string &name, const char *v)
{
    return field(name, std::string(v != nullptr ? v : ""));
}

ObjectWriter &
ObjectWriter::field(const std::string &name, double v)
{
    key(name);
    body_ += num(v);
    return *this;
}

ObjectWriter &
ObjectWriter::field(const std::string &name, std::uint64_t v)
{
    key(name);
    body_ += strprintf("%llu", static_cast<unsigned long long>(v));
    return *this;
}

ObjectWriter &
ObjectWriter::field(const std::string &name, int v)
{
    key(name);
    body_ += strprintf("%d", v);
    return *this;
}

ObjectWriter &
ObjectWriter::field(const std::string &name, bool v)
{
    key(name);
    body_ += v ? "true" : "false";
    return *this;
}

ObjectWriter &
ObjectWriter::raw(const std::string &name, const std::string &json)
{
    key(name);
    body_ += json;
    return *this;
}

} // namespace mpc::json
