#ifndef HPCMIXP_SUPPORT_SUBPROCESS_H_
#define HPCMIXP_SUPPORT_SUBPROCESS_H_

/**
 * @file
 * Sandbox vocabulary (DESIGN.md, Sections 13 and 15): the isolation
 * modes, the exit taxonomy a sandbox child's fate is classified by,
 * and the pidfd helper the worker pool waits on.
 *
 * Sandboxed children are forked without exec: they share the parent's
 * address space copy-on-write, leave only through _exit() (no atexit
 * handlers, no stdio flush of buffers inherited from the parent) or
 * by signal, and are always reaped with waitpid() — no zombies.
 */

#include <string>

#include <sys/types.h>

namespace hpcmixp::support {

/** Where an evaluation attempt executes (harness --isolation). */
enum class IsolationMode {
    None, ///< in the tuner process (the historical behavior)
    Pool, ///< on a persistent pre-forked worker (see WorkerPool)
};

/** Parse "none" / "pool"; throws FatalError on anything else. */
IsolationMode parseIsolationMode(const std::string& text);

/** How a sandbox child terminated. */
enum class ChildExit {
    Clean,            ///< _exit(0)
    NonZeroExit,      ///< _exit(code != 0)
    Signaled,         ///< killed by a signal it raised (SIGSEGV, abort)
    KilledOnDeadline, ///< SIGKILLed by the parent at the deadline
    SpawnFailed,      ///< fork() itself failed; no child ran
};

/** Canonical name of a ChildExit ("clean", "nonzero_exit", ...). */
const char* childExitName(ChildExit exit);

/** Status a sandbox child reports when its body throws. */
inline constexpr int kChildBodyThrew = 61;

/**
 * Open a pidfd for @p pid (pidfd_open(2)), or -1 when the kernel does
 * not support it. A pidfd polls readable once the process exits, which
 * lets a parent sleep in ppoll() until exactly the child's death or a
 * deadline — no reap-poll wakeups. The caller owns the descriptor.
 */
int pidfdOpen(pid_t pid);

} // namespace hpcmixp::support

#endif // HPCMIXP_SUPPORT_SUBPROCESS_H_
