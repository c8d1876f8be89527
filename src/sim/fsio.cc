#include "sim/fsio.hh"

#include <charconv>
#include <cstdio>
#include <fstream>

namespace mbus {
namespace sim {

bool
atomicWriteFile(const std::string &path,
                const std::function<void(std::ostream &)> &emit)
{
    std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return false;
        emit(os);
        os.flush();
        if (!os.good())
            return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
atomicWriteFile(const std::string &path, const std::string &bytes)
{
    return atomicWriteFile(path, [&](std::ostream &os) {
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
    });
}

std::string
formatDouble(double v)
{
    std::string out;
    appendDouble(out, v);
    return out;
}

void
appendDouble(std::string &out, double v)
{
    char buf[40];
    auto res = std::to_chars(buf, buf + sizeof(buf), v,
                             std::chars_format::general, 17);
    out.append(buf, res.ptr);
}

} // namespace sim
} // namespace mbus
