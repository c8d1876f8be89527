#include "sweep/codec.hh"

#include <charconv>
#include <cstring>
#include <type_traits>
#include <vector>

#include "sim/fsio.hh"
#include "sweep/schema.hh"

namespace mbus {
namespace sweep {

namespace {

const char *kHex = "0123456789ABCDEF";
const char *kSpecTag = "spec1";
const char *kStatsTag = "stat1";

bool
tokenSafe(char c)
{
    return c > 0x20 && c < 0x7f && c != '%' && c != '|';
}

void
appendEscaped(std::string &out, const std::string &raw)
{
    for (char c : raw) {
        if (tokenSafe(c)) {
            out += c;
        } else {
            unsigned char u = static_cast<unsigned char>(c);
            out += '%';
            out += kHex[u >> 4];
            out += kHex[u & 0xf];
        }
    }
}

int
hexDigit(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'A' && c <= 'F')
        return 10 + (c - 'A');
    return -1;
}

template <class T> struct IsVector : std::false_type {};
template <class T> struct IsVector<std::vector<T>> : std::true_type {};

/** Largest element count a decoder accepts for a vector of T. */
template <class T>
constexpr std::uint64_t kMaxCount =
    std::is_arithmetic_v<T>                  ? 1ULL << 26
    : std::is_same_v<T, trace::MetricSample> ? 1ULL << 16
                                             : 4096;

/** Field visitor appending one '|'-framed token per scalar field. */
class Writer
{
  public:
    explicit Writer(const char *tag) : out_(tag) {}

    template <class T>
    void
    operator()(const char *, const T &v)
    {
        if constexpr (std::is_same_v<T, std::string>) {
            out_ += '|';
            appendEscaped(out_, v);
        } else if constexpr (std::is_same_v<T, double>) {
            out_ += '|';
            sim::appendDouble(out_, v);
        } else if constexpr (std::is_same_v<T, bool>) {
            out_ += v ? "|1" : "|0";
        } else if constexpr (std::is_enum_v<T>) {
            (*this)(nullptr, static_cast<std::uint64_t>(v));
        } else if constexpr (std::is_integral_v<T>) {
            char buf[24];
            out_ += '|';
            out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
        } else if constexpr (IsVector<T>::value) {
            (*this)(nullptr, static_cast<std::uint64_t>(v.size()));
            for (const auto &e : v)
                (*this)(nullptr, e);
        } else {
            forEachField(v, *this);
        }
    }

    std::string take() { return std::move(out_); }

  private:
    std::string out_;
};

/**
 * Field visitor parsing the tokens a Writer produced. It accepts only
 * the exact bytes a Writer would write for the value it parses (so a
 * successful decode re-encodes byte-identically), and any value that
 * does not fit its field poisons ok().
 */
class Reader
{
  public:
    explicit Reader(const std::string &bytes)
        : p_(bytes.data()), end_(bytes.data() + bytes.size())
    {
    }

    template <class T>
    void
    operator()(const char *, T &v)
    {
        if (!ok_)
            return;
        if constexpr (std::is_same_v<T, std::string>) {
            std::string_view t = next();
            ok_ = ok_ && unescapeToken(t, v);
        } else if constexpr (std::is_same_v<T, bool>) {
            std::string_view t = next();
            ok_ = t == "0" || t == "1";
            v = t == "1";
        } else if constexpr (std::is_same_v<T, double>) {
            std::string_view t = next();
            auto r = std::from_chars(t.data(), t.data() + t.size(), v);
            canon_.clear();
            sim::appendDouble(canon_, v);
            ok_ = r.ec == std::errc() && canon_ == t;
        } else if constexpr (std::is_enum_v<T>) {
            std::underlying_type_t<T> u = 0;
            (*this)(nullptr, u);
            ok_ = ok_ && u <= static_cast<decltype(u)>(kLastEnumerator<T>);
            v = static_cast<T>(u);
        } else if constexpr (std::is_integral_v<T>) {
            // Canonical decimal that fits T: no sign on unsigned
            // fields, no '+', no leading zeros, no "-0".
            std::string_view t = next();
            std::size_t lead = !t.empty() && t[0] == '-';
            auto r = std::from_chars(t.data(), t.data() + t.size(), v);
            ok_ = r.ec == std::errc() && r.ptr == t.data() + t.size() &&
                  (t[lead] != '0' || t.size() == 1);
        } else if constexpr (IsVector<T>::value) {
            // Each element takes at least one token, and each further
            // token at least one byte: a count the input cannot hold
            // is malformed before anything is allocated.
            std::uint64_t n = 0;
            (*this)(nullptr, n);
            ok_ = ok_ && n <= kMaxCount<typename T::value_type> &&
                  n <= static_cast<std::uint64_t>(end_ - p_) + more_;
            v.resize(ok_ ? n : 0);
            for (auto &e : v)
                (*this)(nullptr, e);
        } else {
            forEachField(v, *this);
        }
    }

    /** @return the next token (empty, and ok() false, past the end). */
    std::string_view
    next()
    {
        if (!more_) {
            ok_ = false;
            return {};
        }
        auto left = static_cast<std::size_t>(end_ - p_);
        auto q = static_cast<const char *>(std::memchr(p_, '|', left));
        if (q == nullptr)
            q = end_;
        std::string_view t(p_, static_cast<std::size_t>(q - p_));
        more_ = q != end_;
        p_ = more_ ? q + 1 : q;
        return t;
    }

    /** Every token parsed, and all of them consumed. */
    bool ok() const { return ok_ && !more_; }

  private:
    const char *p_;
    const char *end_;
    bool more_ = true;
    bool ok_ = true;
    std::string canon_;
};

template <class Rec>
std::string
encode(const char *tag, const Rec &rec)
{
    Writer w(tag);
    forEachField(rec, w);
    return w.take();
}

template <class Rec>
bool
decode(const char *tag, const std::string &bytes, Rec &out)
{
    Reader r(bytes);
    if (r.next() != tag)
        return false;
    Rec rec;
    forEachField(rec, r);
    if (!r.ok())
        return false;
    out = std::move(rec);
    return true;
}

} // namespace

std::string
escapeToken(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size());
    appendEscaped(out, raw);
    return out;
}

bool
unescapeToken(std::string_view token, std::string &out)
{
    out.clear();
    out.reserve(token.size());
    for (std::size_t i = 0; i < token.size(); ++i) {
        char c = token[i];
        if (c == '%') {
            int hi = i + 2 < token.size() ? hexDigit(token[i + 1]) : -1;
            int lo = hi >= 0 ? hexDigit(token[i + 2]) : -1;
            c = static_cast<char>(16 * hi + lo);
            if (lo < 0 || tokenSafe(c))
                return false;
            i += 2;
        } else if (!tokenSafe(c)) {
            return false;
        }
        out += c;
    }
    return true;
}

std::string
encodeSpec(const ScenarioSpec &spec)
{
    return encode(kSpecTag, spec);
}

bool
decodeSpec(const std::string &bytes, ScenarioSpec &out)
{
    return decode(kSpecTag, bytes, out);
}

std::string
encodeStats(const ScenarioStats &stats)
{
    return encode(kStatsTag, stats);
}

bool
decodeStats(const std::string &bytes, ScenarioStats &out)
{
    return decode(kStatsTag, bytes, out);
}

} // namespace sweep
} // namespace mbus
