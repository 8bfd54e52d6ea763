#include "snapshot.hh"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>

#include "common/fault_fs.hh"
#include "common/io_retry.hh"
#include "common/telemetry.hh"

namespace morrigan
{

namespace
{

constexpr char kMagic[8] = {'M', 'R', 'G', 'N', 'S', 'N', 'A', 'P'};
constexpr std::size_t kHeaderSize = 8 + 4 + 8 + 8 + 8 + 4 + 4;

/** Marker prefix preceding every section name. */
constexpr std::uint32_t kSectionMark = 0x5EC7105Eu;

const std::array<std::uint32_t, 256> &
crcTable()
{
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    return table;
}

void
putLe32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putLe64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint32_t
getLe32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
getLe64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

std::string
buildHeader(const std::string &payload, std::uint64_t progress,
            std::uint64_t total)
{
    std::string h;
    h.reserve(kHeaderSize);
    h.append(kMagic, sizeof(kMagic));
    putLe32(h, snapshotSchemaVersion);
    putLe64(h, progress);
    putLe64(h, total);
    putLe64(h, payload.size());
    putLe32(h, crc32(payload.data(), payload.size()));
    putLe32(h, crc32(h.data(), h.size()));
    return h;
}

/**
 * Parse and validate the fixed header. @return false with @p err set
 * on any defect (the caller chooses whether that throws).
 */
bool
parseHeader(const std::uint8_t *p, std::size_t size,
            SnapshotHeader &out, std::string &err)
{
    if (size < kHeaderSize) {
        err = "truncated header";
        return false;
    }
    if (std::memcmp(p, kMagic, sizeof(kMagic)) != 0) {
        err = "bad magic (not a morrigan snapshot)";
        return false;
    }
    std::uint32_t stored = getLe32(p + kHeaderSize - 4);
    if (crc32(p, kHeaderSize - 4) != stored) {
        err = "header CRC mismatch";
        return false;
    }
    out.version = getLe32(p + 8);
    out.progressInstructions = getLe64(p + 12);
    out.totalInstructions = getLe64(p + 20);
    out.payloadSize = getLe64(p + 28);
    return true;
}

std::string
readWholeFile(const std::string &path, bool &missing)
{
    missing = false;
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        missing = true;
        return {};
    }
    std::string data;
    char buf[1 << 16];
    for (;;) {
        ssize_t n = io::readRetry(fd, buf, sizeof(buf));
        if (n < 0) {
            ::close(fd);
            missing = true;
            return {};
        }
        if (n == 0)
            break;
        data.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return data;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t size, std::uint32_t seed)
{
    const auto &table = crcTable();
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i)
        c = table[(c ^ p[i]) & 0xff] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

bool
readSnapshotHeader(const std::string &path, SnapshotHeader &out)
{
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    std::uint8_t buf[kHeaderSize];
    std::size_t got = 0;
    while (got < sizeof(buf)) {
        ssize_t n = io::readRetry(fd, buf + got, sizeof(buf) - got);
        if (n <= 0)
            break;
        got += static_cast<std::size_t>(n);
    }
    ::close(fd);
    std::string err;
    return got == sizeof(buf) && parseHeader(buf, got, out, err);
}

void
SnapshotWriter::raw(const void *data, std::size_t size)
{
    buf_.append(static_cast<const char *>(data), size);
}

void
SnapshotWriter::u32(std::uint32_t v)
{
    putLe32(buf_, v);
}

void
SnapshotWriter::u64(std::uint64_t v)
{
    putLe64(buf_, v);
}

void
SnapshotWriter::str(const std::string &s)
{
    u64(s.size());
    raw(s.data(), s.size());
}

void
SnapshotWriter::section(const char *name)
{
    u32(kSectionMark);
    str(name);
}

void
SnapshotWriter::writeToFile(const std::string &path,
                            std::uint64_t progress,
                            std::uint64_t total) const
{
    telemetry::ScopedSpan span(telemetry::Phase::SnapshotWrite);
    // The temp name must be unique per *writer*, not just per
    // process: two pool threads publishing the same warmup image
    // concurrently would otherwise truncate each other's half-written
    // temp file (the CRCs catch the corruption, but the image -- and
    // the time spent producing it -- is lost).
    static std::atomic<std::uint64_t> writerSerial{0};
    std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
                      "." + std::to_string(++writerSerial);
    int fd = ::open(tmp.c_str(),
                    O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0)
        throw SnapshotError("cannot create " + tmp + ": " +
                            std::strerror(errno));
    std::string header = buildHeader(buf_, progress, total);
    // Writes and the fsync route through the fault shim: an
    // injected (or real) failure aborts the publish below, so a
    // half-written image can never be renamed into place.
    auto writeAll = [&](const std::string &data) {
        return faultfs::writeAll(fd, data.data(), data.size());
    };
    bool ok = writeAll(header) && writeAll(buf_) &&
              faultfs::fsync(fd) == 0;
    int saved = errno;
    ::close(fd);
    telemetry::add(telemetry::Counter::Fsyncs);
    if (ok)
        telemetry::add(telemetry::Counter::SnapshotBytesWritten,
                       header.size() + buf_.size());
    if (!ok) {
        ::unlink(tmp.c_str());
        throw SnapshotError("cannot write " + tmp + ": " +
                            std::strerror(saved));
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        saved = errno;
        ::unlink(tmp.c_str());
        throw SnapshotError("cannot publish " + path + ": " +
                            std::strerror(saved));
    }
}

SnapshotReader::SnapshotReader(const std::string &path)
{
    telemetry::ScopedSpan span(telemetry::Phase::SnapshotRead);
    bool missing = false;
    std::string image = readWholeFile(path, missing);
    telemetry::add(telemetry::Counter::SnapshotBytesRead,
                   image.size());
    if (missing)
        throw SnapshotError("cannot read snapshot " + path + ": " +
                            std::strerror(errno));
    std::string err;
    if (!parseHeader(
            reinterpret_cast<const std::uint8_t *>(image.data()),
            image.size(), header_, err))
        throw SnapshotError("snapshot " + path + ": " + err);
    if (header_.version != snapshotSchemaVersion)
        throw SnapshotError(
            "snapshot " + path + ": schema version " +
            std::to_string(header_.version) + " != expected " +
            std::to_string(snapshotSchemaVersion));
    if (image.size() - kHeaderSize != header_.payloadSize)
        throw SnapshotError("snapshot " + path +
                            ": truncated payload (" +
                            std::to_string(image.size() - kHeaderSize) +
                            " of " + std::to_string(header_.payloadSize) +
                            " bytes)");
    std::uint32_t stored = getLe32(
        reinterpret_cast<const std::uint8_t *>(image.data()) + 36);
    std::uint32_t actual =
        crc32(image.data() + kHeaderSize, header_.payloadSize);
    if (actual != stored)
        throw SnapshotError("snapshot " + path +
                            ": payload CRC mismatch");
    buf_ = image.substr(kHeaderSize);
}

const std::uint8_t *
SnapshotReader::take(std::size_t size)
{
    if (buf_.size() - pos_ < size)
        throw SnapshotError("snapshot underrun at offset " +
                            std::to_string(pos_));
    const auto *p =
        reinterpret_cast<const std::uint8_t *>(buf_.data()) + pos_;
    pos_ += size;
    return p;
}

std::uint8_t
SnapshotReader::u8()
{
    return *take(1);
}

std::uint32_t
SnapshotReader::u32()
{
    return getLe32(take(4));
}

std::uint64_t
SnapshotReader::u64()
{
    return getLe64(take(8));
}

std::string
SnapshotReader::str()
{
    std::uint64_t size = u64();
    if (buf_.size() - pos_ < size)
        throw SnapshotError("snapshot string underrun at offset " +
                            std::to_string(pos_));
    const auto *p = take(static_cast<std::size_t>(size));
    return std::string(reinterpret_cast<const char *>(p),
                       static_cast<std::size_t>(size));
}

void
SnapshotReader::section(const char *name)
{
    std::size_t at = pos_;
    if (u32() != kSectionMark)
        throw SnapshotError("snapshot section marker missing before '" +
                            std::string(name) + "' at offset " +
                            std::to_string(at));
    std::string got = str();
    if (got != name)
        throw SnapshotError("snapshot section mismatch: expected '" +
                            std::string(name) + "', found '" + got +
                            "'");
}

void
SnapshotReader::finish()
{
    if (pos_ != buf_.size())
        throw SnapshotError(
            "snapshot has " + std::to_string(buf_.size() - pos_) +
            " trailing bytes (component drift?)");
}

void
Archive::expect(const std::string &live, const char *what)
{
    if (w_) {
        w_->str(live);
        return;
    }
    std::string v = r_->str();
    if (v != live)
        mismatch(what, "'" + v + "'", "'" + live + "'");
}

void
Archive::mismatch(const char *what, const std::string &stored,
                  const std::string &live)
{
    throw SnapshotError(std::string(what) + " mismatch: snapshot has " +
                        stored + ", live has " + live);
}

} // namespace morrigan
