/**
 * @file
 * Test helpers: one object's visit(Archive&) field list as a
 * standalone snapshot payload, and back.
 */

#ifndef MORRIGAN_TESTS_ARCHIVE_UTIL_HH
#define MORRIGAN_TESTS_ARCHIVE_UTIL_HH

#include <string>
#include <utility>

#include "common/snapshot.hh"

namespace morrigan
{

/** Save @p obj through its visit() into a fresh payload. */
template <typename T>
std::string
savePayload(T &obj)
{
    SnapshotWriter w;
    Archive ar(w);
    obj.visit(ar);
    return w.payload();
}

/** Restore @p obj from @p payload, which it must consume exactly.
 * @throws SnapshotError on any mismatch. */
template <typename T>
void
loadPayload(T &obj, std::string payload)
{
    SnapshotReader r = SnapshotReader::fromPayload(std::move(payload));
    Archive ar(r);
    obj.visit(ar);
    r.finish();
}

} // namespace morrigan

#endif // MORRIGAN_TESTS_ARCHIVE_UTIL_HH
