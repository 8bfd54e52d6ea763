/**
 * @file
 * Versioned, checksummed full-simulator snapshots.
 *
 * A snapshot serializes the *entire* mutable state of a simulation --
 * RNG streams, workload-generator state, TLBs, prefetcher tables,
 * caches, page table, walker queues and the stats registry -- into a
 * single binary image, so a run can be interrupted at any checkpoint
 * boundary and resumed bit-identically, and so a warmed-up image can
 * be reused across runs that share everything but the measurement.
 *
 * Image layout:
 *
 *   [ 8] magic "MRGNSNAP"
 *   [ 4] schema version (snapshotSchemaVersion at write time)
 *   [ 8] progress: instructions already executed (warmup + measured)
 *   [ 8] total instruction budget of the producing run
 *   [ 8] payload size in bytes
 *   [ 4] CRC32 of the payload
 *   [ 4] CRC32 of the 40 header bytes above
 *   [..] payload
 *
 * The payload is a flat little-endian stream of fields punctuated by
 * named section markers; readers verify each marker, so any drift
 * between the save and restore sides fails loudly at the exact
 * component instead of silently misinterpreting bytes.
 *
 * Failure policy: *every* defect -- truncation, corruption, version
 * mismatch, identity mismatch, geometry mismatch -- throws
 * SnapshotError. Callers catch it at the restore entry point, discard
 * the image and re-simulate from scratch; a bad snapshot must never
 * crash a campaign or, worse, silently alter results.
 *
 * Publication is atomic: writeToFile() writes `path.tmp.<pid>` and
 * rename()s it over `path`, so concurrent readers only ever observe
 * a complete image or none at all.
 */

#ifndef MORRIGAN_COMMON_SNAPSHOT_HH
#define MORRIGAN_COMMON_SNAPSHOT_HH

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace morrigan
{

/**
 * Schema version of the snapshot payload encoding. Bump whenever any
 * component's serialized layout changes; readers reject images whose
 * version differs (re-simulating is always safe, reinterpreting
 * stale bytes never is).
 */
constexpr std::uint32_t snapshotSchemaVersion = 1;

/** Any defect in a snapshot image or a save/restore mismatch. */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** IEEE CRC32 (reflected, 0xEDB88320) over @p size bytes. */
std::uint32_t crc32(const void *data, std::size_t size,
                    std::uint32_t seed = 0);

/** Parsed snapshot header (the cheap part; no payload verification). */
struct SnapshotHeader
{
    std::uint32_t version = 0;
    std::uint64_t progressInstructions = 0;
    std::uint64_t totalInstructions = 0;
    std::uint64_t payloadSize = 0;
};

/**
 * Read and validate only the 40-byte header of @p path: magic and
 * header CRC are checked, the payload is not touched. Used by the
 * supervisor's watchdog to learn how far a killed job had progressed
 * without paying for a full payload verification.
 *
 * @return false (without throwing) if the file is missing, short, or
 * fails header validation.
 */
bool readSnapshotHeader(const std::string &path, SnapshotHeader &out);

/** Serializes fields into a payload buffer; publishes atomically. */
class SnapshotWriter
{
  public:
    SnapshotWriter() { buf_.reserve(1 << 16); }

    /** Named section marker; the reader must match it exactly. */
    void section(const char *name);

    void u8(std::uint8_t v) { raw(&v, 1); }
    void b(bool v) { u8(v ? 1 : 0); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    /** Bit-exact double (IEEE-754 image, not a decimal round trip). */
    void
    f64(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void str(const std::string &s);

    const std::string &payload() const { return buf_; }

    /**
     * Publish the payload to @p path: header + payload to
     * `path.tmp.<pid>`, fsync, rename over @p path.
     *
     * @param progress Instructions already executed by the producer.
     * @param total Producer's total instruction budget.
     * @throws SnapshotError on any I/O failure.
     */
    void writeToFile(const std::string &path, std::uint64_t progress,
                     std::uint64_t total) const;

  private:
    void raw(const void *data, std::size_t size);

    std::string buf_;
};

/** Validates and deserializes a snapshot image. */
class SnapshotReader
{
  public:
    /**
     * Load @p path: header magic, version, both CRCs and the payload
     * size are all verified before any field is decoded.
     *
     * @throws SnapshotError on any defect.
     */
    explicit SnapshotReader(const std::string &path);

    /** Wrap an in-memory payload (tests; no header involved). */
    static SnapshotReader
    fromPayload(std::string payload)
    {
        SnapshotReader r;
        r.buf_ = std::move(payload);
        return r;
    }

    const SnapshotHeader &header() const { return header_; }

    /** Consume and verify a section marker written by section(). */
    void section(const char *name);

    std::uint8_t u8();
    bool b() { return u8() != 0; }
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    double
    f64()
    {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string str();

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return buf_.size() - pos_; }

    /** Assert the whole payload was consumed (end of restore). */
    void finish();

  private:
    SnapshotReader() = default;

    const std::uint8_t *take(std::size_t size);

    std::string buf_;
    std::size_t pos_ = 0;
    SnapshotHeader header_;
};

/**
 * One field list for both directions. A component describes its
 * mutable state once, in a visit(Archive &) member that names every
 * field in payload order; run over an Archive built on a
 * SnapshotWriter it saves, run over one built on a SnapshotReader it
 * restores. The two halves of a format can therefore not drift.
 *
 * The field methods take the live field by reference: they write it
 * when saving and overwrite it when loading. Integral and enum fields
 * of any width may use any wire width (as the format dictates); the
 * cast back on load is the inverse of the cast on save. Code that
 * genuinely differs between the directions (an order-normalised
 * dump, rebuilding a container) branches on saving().
 */
class Archive
{
  public:
    explicit Archive(SnapshotWriter &w) : w_(&w) {}
    explicit Archive(SnapshotReader &r) : r_(&r) {}

    bool saving() const { return w_ != nullptr; }

    /** Named section marker (see SnapshotWriter::section()). */
    void
    section(const char *name)
    {
        if (w_)
            w_->section(name);
        else
            r_->section(name);
    }

    template <typename T>
    void
    u8(T &v)
    {
        if (w_)
            w_->u8(static_cast<std::uint8_t>(v));
        else
            v = static_cast<T>(r_->u8());
    }

    template <typename T>
    void
    b(T &v)
    {
        if (w_)
            w_->b(v != T{});
        else
            v = static_cast<T>(r_->b());
    }

    template <typename T>
    void
    u32(T &v)
    {
        if (w_)
            w_->u32(static_cast<std::uint32_t>(v));
        else
            v = static_cast<T>(r_->u32());
    }

    template <typename T>
    void
    u64(T &v)
    {
        if (w_)
            w_->u64(static_cast<std::uint64_t>(v));
        else
            v = static_cast<T>(r_->u64());
    }

    template <typename T>
    void
    i64(T &v)
    {
        if (w_)
            w_->i64(static_cast<std::int64_t>(v));
        else
            v = static_cast<T>(r_->i64());
    }

    void
    f64(double &v)
    {
        if (w_)
            w_->f64(v);
        else
            v = r_->f64();
    }

    void
    str(std::string &s)
    {
        if (w_)
            w_->str(s);
        else
            s = r_->str();
    }

    /**
     * A u64 element count: @p live when saving, the stored count
     * when loading (the caller sizes its container from it).
     */
    std::uint64_t
    count(std::uint64_t live)
    {
        u64(live);
        return live;
    }

    /**
     * A configuration fingerprint field: writes @p live when saving;
     * when loading, reads the stored value and throws SnapshotError
     * naming @p what if it differs from @p live. The overload picks
     * the wire width.
     */
    void expect(std::uint64_t live, const char *what) { check(live, what); }
    void expect(std::uint32_t live, const char *what) { check(live, what); }
    void expect(std::uint8_t live, const char *what) { check(live, what); }
    void expect(bool live, const char *what) { check(live, what); }
    void expect(const std::string &live, const char *what);
    void expect(const char *live, const char *what) = delete;

  private:
    template <typename T>
    void
    check(T live, const char *what)
    {
        T v = live;
        if constexpr (std::is_same_v<T, bool>)
            b(v);
        else if constexpr (sizeof(T) == 1)
            u8(v);
        else if constexpr (sizeof(T) == 4)
            u32(v);
        else
            u64(v);
        if (v != live)
            mismatch(what, std::to_string(v), std::to_string(live));
    }

    [[noreturn]] static void mismatch(const char *what,
                                      const std::string &stored,
                                      const std::string &live);

    SnapshotWriter *w_ = nullptr;
    SnapshotReader *r_ = nullptr;
};

} // namespace morrigan

#endif // MORRIGAN_COMMON_SNAPSHOT_HH
