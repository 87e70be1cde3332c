#!/usr/bin/env bash
# Sampling profile of one in-process command of this workspace.
#
#   scripts/profile.sh [--threads] BIN [ARGS...]
#
# e.g. scripts/profile.sh gsim run lbm --sms 8
#      scripts/profile.sh --threads gsim predict gemm 32 64
#
# A BIN that names a file (it contains a `/`) is profiled as it is, with
# no build: e.g. a `gsim-benchmark` built with
# CARGO_PROFILE_RELEASE_DEBUG=true and --threads, as its serve workloads
# run a server thread and two clients.
#
# It builds BIN (a binary of this workspace: `gsim`, `serve_bench`) with
# the release profile, which carries full debug info, into the
# workspace's `target/`. Line tables alone are not enough: from them
# addr2line names the innermost inlined frame after the out-of-line
# function around it. It then runs `BIN ARGS...` with a small LD_PRELOAD
# shim, compiled with `cc` into a temporary directory, that records the
# interrupted instruction pointer on every SIGPROF:
#
#   - by default from a timer_create(CLOCK_MONOTONIC) timer aimed at the
#     main thread, at 10 kHz: wall-clock samples of a single-threaded
#     command;
#   - with --threads from ITIMER_PROF, the process's CPU time over all its
#     threads, at the kernel's tick rate (about 1 kHz at most): a command
#     that simulates on several threads, such as a full-path `gsim predict`.
#
# At exit the shim writes the samples and /proc/self/maps; `addr2line -f -i
# -C` maps each to its innermost (inlined) function and to the out-of-line
# function that contains it, and the script prints the top 25 of each as
# a share of all samples. BIN's own stdout and stderr pass through, and
# the script exits with BIN's status: a report that fails (no samples,
# say) prints its reason on stderr but does not hide that status.
# Nothing is written into the checkout. Needs cc, readelf, addr2line and
# python3; no `perf`, no kernel settings.
#
# SIGPROF interrupts blocking system calls: the shim asks for SA_RESTART,
# but a call with a timeout (sleep, poll, a socket read with a deadline)
# can still fail with EINTR. Profile commands that compute in one process
# (`gsim run`, `gsim mrc`, and `gsim predict`, which answers through the
# service's own request handler), not a server and its load generator:
# a profiled benchmark serve run failed on EINTR in its harness.
set -euo pipefail

usage() {
    echo "usage: $0 [--threads] BIN [ARGS...]" >&2
    exit 2
}
threads=0
while [ $# -gt 0 ]; do
    case $1 in
        --threads) threads=1; shift ;;
        -*) usage ;;
        *) break ;;
    esac
done
[ $# -ge 1 ] || usage
bin=$1
shift
repo=$(cd "$(dirname "$0")/.." && pwd)

if [[ $bin == */* ]]; then
    exe=$bin
else
    cargo build -q --release --offline --locked \
        --manifest-path "$repo/Cargo.toml" --target-dir "$repo/target" --bin "$bin"
    exe="$repo/target/release/$bin"
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cat > "$tmp/shim.c" <<'EOF'
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1UL << 23)

static unsigned long *samples;
static unsigned long n_samples;
static timer_t timer;

static void on_tick(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    ucontext_t *uc = ctx;
    unsigned long i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
    if (i >= MAX_SAMPLES)
        return;
#if defined(__x86_64__)
    samples[i] = (unsigned long)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    samples[i] = (unsigned long)uc->uc_mcontext.pc;
#else
#error "unsupported architecture"
#endif
}

__attribute__((constructor)) static void start(void) {
    samples = mmap(NULL, MAX_SAMPLES * sizeof *samples, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (samples == MAP_FAILED)
        return;
    struct sigaction sa = {0};
    sa.sa_sigaction = on_tick;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
#if PROFILE_THREADS
    struct itimerval it = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &it, NULL);
#else
    struct sigevent sev = {0};
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
    sev._sigev_un._tid = (pid_t)syscall(SYS_gettid);
    struct itimerspec its = {{0, 100000}, {0, 100000}};
    if (timer_create(CLOCK_MONOTONIC, &sev, &timer) == 0)
        timer_settime(timer, 0, &its, NULL);
#endif
}

__attribute__((destructor)) static void dump(void) {
    if (samples == MAP_FAILED || samples == NULL)
        return;
    sigset_t prof;
    sigemptyset(&prof);
    sigaddset(&prof, SIGPROF);
    sigprocmask(SIG_BLOCK, &prof, NULL);
    char path[4096];
    snprintf(path, sizeof path, "%s/samples.%d", PROFILE_OUT, (int)getpid());
    FILE *out = fopen(path, "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (out == NULL || maps == NULL)
        return;
    char line[8192];
    while (fgets(line, sizeof line, maps))
        fputs(line, out);
    fclose(maps);
    fputs("--\n", out);
    unsigned long n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++)
        fprintf(out, "%lx\n", samples[i]);
    fclose(out);
}
EOF
cc -shared -fPIC -O2 -o "$tmp/shim.so" "$tmp/shim.c" -lrt \
    -DPROFILE_OUT="\"$tmp\"" -DPROFILE_THREADS="$threads"

status=0
LD_PRELOAD="$tmp/shim.so" "$exe" "$@" || status=$?

readelf -lW "$exe" > "$tmp/segments"
python3 - "$exe" "$tmp" "$threads" <<'EOF' || true
import bisect, collections, glob, os, re, subprocess, sys

TOP = 25
exe, tmp, threads = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
exe = os.path.realpath(exe)
# PT_LOAD (offset, vaddr, filesz): a file offset's link-time address.
loads = []
for line in open(f"{tmp}/segments"):
    f = line.split()
    if f and f[0] == "LOAD":
        loads.append((int(f[1], 16), int(f[2], 16), int(f[4], 16)))

runs = sorted(glob.glob(f"{tmp}/samples.*"), key=os.path.getsize)
if not runs:
    sys.exit("profile: the command left no samples (did it exit through a signal?)")
maps, rips = [], []
section = maps
for line in open(runs[-1]):
    line = line.rstrip("\n")
    if line == "--":
        section = rips
    elif section is maps:
        f = line.split(maxsplit=5)
        lo, hi = (int(x, 16) for x in f[0].split("-"))
        maps.append((lo, hi, int(f[2], 16), f[5] if len(f) == 6 else ""))
    else:
        rips.append(int(line, 16))
maps.sort()
starts = [m[0] for m in maps]

def locate(rip):
    """The link-time address in the executable, or the mapping's name."""
    i = bisect.bisect_right(starts, rip) - 1
    if i < 0 or rip >= maps[i][1]:
        return None, "[unmapped]"
    lo, _, off, path = maps[i]
    if not path.startswith("/") or os.path.realpath(path) != exe:
        return None, f"[{os.path.basename(path) or 'anon'}]"
    fo = rip - lo + off
    for p_off, p_vaddr, p_filesz in loads:
        if p_off <= fo < p_off + p_filesz:
            return fo - p_off + p_vaddr, None
    return None, f"[{os.path.basename(exe)}]"

located = [locate(r) for r in rips]
addrs = sorted({a for a, _ in located if a is not None})
frames = {}
if addrs:
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", exe],
        input="".join(f"{a:#x}\n" for a in addrs),
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    hashed = re.compile(r"::h[0-9a-f]{16}$")
    # Each address is followed by (function, location) pairs, innermost
    # first; the last pair is the out-of-line function.
    cur, pending = None, []
    def close():
        if cur is not None:
            frames[cur] = [hashed.sub("", fn) for fn in pending[0::2]]
    for line in out:
        if re.fullmatch(r"0x[0-9a-f]+", line):
            close()
            cur, pending = int(line, 16), []
        else:
            pending.append(line)
    close()

inner, outer = collections.Counter(), collections.Counter()
for addr, name in located:
    fns = (frames.get(addr) or ["??"]) if addr is not None else [name]
    inner[fns[0]] += 1
    outer[fns[-1]] += 1
n = len(rips)
if n == 0:
    sys.exit("profile: no samples (the command ended before the first tick)")
how = "ITIMER_PROF, all threads" if threads else "10 kHz timer, main thread"
print(f"\n{n} samples ({how})", file=sys.stderr)
for title, counts in (("innermost (inlined) functions", inner), ("out-of-line functions", outer)):
    print(f"top {title}:", file=sys.stderr)
    for fn, c in counts.most_common(TOP):
        print(f"  {100 * c / n:6.2f} %  {c:>8}  {fn}", file=sys.stderr)
EOF
exit "$status"
