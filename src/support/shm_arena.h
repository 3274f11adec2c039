#ifndef HPCMIXP_SUPPORT_SHM_ARENA_H_
#define HPCMIXP_SUPPORT_SHM_ARENA_H_

/**
 * @file
 * Shared-memory result arena for sandbox evaluation (DESIGN.md §13).
 *
 * A ShmArena is a fixed-size region of anonymous shared memory
 * (MAP_SHARED | MAP_ANONYMOUS) created by the parent *before* fork(),
 * so both sides address the same physical pages without any file
 * descriptor, name registration or unlink bookkeeping — there is
 * nothing to leak across hundreds of sandbox evaluations.
 *
 * The layout is a fixed header followed by an opaque payload,
 * checksummed like an AppendLog record:
 *
 *     [ magic | capacity | payloadSize | fnv1a64(payload) | state ]
 *     [ payload bytes ... up to capacity ]
 *
 * The child writes the payload, then the checksum, then flips state to
 * Committed as its very last store. The parent validates only after
 * reaping the child (waitpid provides the happens-before edge), so a
 * child that died mid-write — between any two stores — leaves either
 * state != Committed or a checksum mismatch, never a silently torn
 * result. read() reports such arenas as corrupt.
 */

#include <cstddef>
#include <cstdint>

namespace hpcmixp::support {

/** One parent/child shared result slot; see file comment. */
class ShmArena {
  public:
    /** Map an arena able to hold @p capacity payload bytes. */
    explicit ShmArena(std::size_t capacity);
    ~ShmArena();

    ShmArena(const ShmArena&) = delete;
    ShmArena& operator=(const ShmArena&) = delete;

    /** Maximum payload size in bytes. */
    std::size_t capacity() const;

    /** Clear the committed state (parent, before each fork). */
    void reset();

    /** Publish @p size payload bytes (child; the commit protocol in
     *  the file comment). @p size must fit capacity(). */
    void commit(const void* data, std::size_t size);

    /** True when a complete, checksum-valid payload is present. */
    bool committed() const;

    /** Size of the committed payload; 0 when not committed. */
    std::size_t payloadSize() const;

    /**
     * Copy the committed payload into @p out. Returns false — without
     * touching @p out — when the arena was never committed, the
     * committed size differs from @p size, or the checksum does not
     * match the payload (the child died mid-write).
     */
    bool read(void* out, std::size_t size) const;

    /** Raw payload pointer; for corruption tests and in-place
     *  writers. Bytes changed after commit() fail the checksum. */
    void* payload();

  private:
    struct Header;
    Header* header() const;
    unsigned char* payloadBase() const;

    void* map_ = nullptr;
    std::size_t mapBytes_ = 0;
};

} // namespace hpcmixp::support

#endif // HPCMIXP_SUPPORT_SHM_ARENA_H_
