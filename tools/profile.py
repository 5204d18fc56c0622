#!/usr/bin/env python3
"""Sample where a process tree spends its user CPU, by layer.

usage: python3 tools/profile.py -- COMMAND [ARG...]

Runs COMMAND with address-space randomization off and samples it with
the kernel's task-clock software event (perf_event_open, called through
ctypes): one event per CPU, inherited by every thread and every process
COMMAND forks, user space only, HZ samples per CPU-second.  The root
process is reported as the coordinator and every process it forks as
the sites; both over the window in which the sites are busy (from the
first site sample to the last), so the coordinator's setup before the
sites start, and its checks after they stop, do not count.

Samples are symbolized against COMMAND's executable with `nm` (functions)
and `addr2line` (source files); a sample in a shared library counts
under the library's file name.  Made for the serving benchmark:

    dune build ./perfbench/perfbench.exe
    python3 tools/profile.py -- _build/default/perfbench/perfbench.exe \\
        --workload serve-cpu --seed 1 --seconds 10 --trace 0

Exits 2, with the reason, when the kernel refuses perf_event_open
(a seccomp filter, or perf_event_paranoid above 2).  Otherwise exits
with COMMAND's status.  docs/OBSERVABILITY.md, "Sampling the process
tree".
"""

import bisect
import collections
import ctypes
import mmap
import os
import re
import shutil
import signal
import struct
import subprocess
import sys
import time

SYS_PERF_EVENT_OPEN = {"x86_64": 298, "aarch64": 241}
ADDR_NO_RANDOMIZE = 0x0040000

PERF_TYPE_SOFTWARE = 1
PERF_COUNT_SW_TASK_CLOCK = 1
PERF_SAMPLE_IP, PERF_SAMPLE_TID, PERF_SAMPLE_TIME = 1, 2, 4
# perf_event_attr flag bits
DISABLED, INHERIT, EXCLUDE_KERNEL, EXCLUDE_HV = 1 << 0, 1 << 1, 1 << 5, 1 << 6
ENABLE_ON_EXEC = 1 << 12
ATTR_SIZE = 112  # PERF_ATTR_SIZE_VER5
PERF_RECORD_LOST, PERF_RECORD_SAMPLE = 2, 9

RING_PAGES = 64  # data pages per CPU buffer (a power of two)
HZ = 4000  # samples per CPU-second of each thread
TOP = 25  # rows in each table


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def attr_bytes(period_ns):
    a = bytearray(ATTR_SIZE)
    struct.pack_into("<IIQQQQQ", a, 0, PERF_TYPE_SOFTWARE, ATTR_SIZE,
                     PERF_COUNT_SW_TASK_CLOCK, period_ns,
                     PERF_SAMPLE_IP | PERF_SAMPLE_TID | PERF_SAMPLE_TIME, 0,
                     DISABLED | INHERIT | EXCLUDE_KERNEL | EXCLUDE_HV
                     | ENABLE_ON_EXEC)
    return bytes(a)


class Ring:
    """One CPU's event and its mmap'd sample buffer."""

    def __init__(self, fd):
        self.fd = fd
        self.page = mmap.PAGESIZE
        self.size = RING_PAGES * self.page
        self.buf = mmap.mmap(fd, self.page + self.size,
                             mmap.MAP_SHARED, mmap.PROT_READ | mmap.PROT_WRITE)
        self.tail = 0

    def drain(self, on_sample):
        """Hands every complete record to [on_sample]; returns lost count."""
        head = struct.unpack_from("<Q", self.buf, 1024)[0]
        lost = 0
        while self.tail + 8 <= head:
            hdr = self.read(self.tail, 8)
            kind, _misc, size = struct.unpack("<IHH", hdr)
            if size < 8 or self.tail + size > head:
                break
            body = self.read(self.tail + 8, size - 8)
            if kind == PERF_RECORD_SAMPLE and len(body) >= 24:
                ip, pid, _tid, t = struct.unpack_from("<QIIQ", body)
                on_sample(ip, pid, t)
            elif kind == PERF_RECORD_LOST and len(body) >= 16:
                lost += struct.unpack_from("<QQ", body)[1]
            self.tail += size
        struct.pack_into("<Q", self.buf, 1032, self.tail)
        return lost

    def read(self, pos, n):
        start = self.page + pos % self.size
        end = start + n
        if end <= self.page + self.size:
            return self.buf[start:end]
        first = self.buf[start:self.page + self.size]
        return first + self.buf[self.page:self.page + n - len(first)]


def open_events(pid, period_ns):
    arch = os.uname().machine
    if arch not in SYS_PERF_EVENT_OPEN:
        return None, f"no perf_event_open syscall number known for {arch}"
    libc = ctypes.CDLL(None, use_errno=True)
    libc.syscall.restype = ctypes.c_long
    attr = ctypes.create_string_buffer(attr_bytes(period_ns), ATTR_SIZE)
    rings = []
    for cpu in sorted(os.sched_getaffinity(0)):
        fd = libc.syscall(SYS_PERF_EVENT_OPEN[arch], attr, pid, cpu, -1, 0)
        if fd < 0:
            err = ctypes.get_errno()
            for r in rings:
                os.close(r.fd)
            return None, (f"perf_event_open refused on CPU {cpu}: "
                          f"{os.strerror(err)}")
        rings.append(Ring(fd))
    return rings, None


def load_segments(exe):
    """(p_offset, p_filesz, p_vaddr) of each PT_LOAD segment of the
    64-bit little-endian ELF file [exe]."""
    with open(exe, "rb") as f:
        hdr = f.read(64)
        if hdr[:4] != b"\x7fELF" or hdr[4] != 2 or hdr[5] != 1:
            return None
        phoff, = struct.unpack_from("<Q", hdr, 32)
        phentsize, phnum = struct.unpack_from("<HH", hdr, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segs = []
    for k in range(phnum):
        p_type, _flags, off, vaddr, _paddr, filesz = struct.unpack_from(
            "<IIQQQQ", table, k * phentsize)
        if p_type == 1:  # PT_LOAD
            segs.append((off, filesz, vaddr))
    return segs


def exe_mappings(pid, exe):
    """(start, end, offset) of [exe]'s mappings in process [pid]."""
    maps, libs = [], []
    with open(f"/proc/{pid}/maps") as f:
        for line in f:
            parts = line.split()
            if len(parts) < 6:
                continue
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            off = int(parts[2], 16)
            path = parts[5]
            if os.path.realpath(path) == exe:
                maps.append((lo, hi, off))
            elif path.startswith("/"):
                libs.append((lo, hi, os.path.basename(path)))
    return maps, libs


class Symbols:
    """[exe]'s addresses to functions (nm) and source files (addr2line)."""

    def __init__(self, exe):
        self.exe = exe
        out = subprocess.run(["nm", "-n", "--defined-only", exe],
                             capture_output=True, text=True).stdout
        self.addrs, self.names = [], []
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[1] in "tTwW":
                self.addrs.append(int(parts[0], 16))
                self.names.append(parts[2])

    def function(self, vaddr):
        k = bisect.bisect_right(self.addrs, vaddr) - 1
        return pretty(self.names[k]) if k >= 0 else "?"

    def files(self, vaddrs):
        vaddrs = sorted(set(vaddrs))
        out = {}
        for k in range(0, len(vaddrs), 20000):
            chunk = vaddrs[k:k + 20000]
            res = subprocess.run(["addr2line", "-e", self.exe],
                                 input="\n".join(hex(a) for a in chunk),
                                 capture_output=True, text=True)
            lines = res.stdout.splitlines()
            for a, line in zip(chunk, lines):
                path = line.rsplit(":", 1)[0]
                out[a] = "?" if path.startswith("??") else short_path(path)
        return out


def pretty(sym):
    """camlPax_core__Flat_pass__qwalk_1234 -> Pax_core.Flat_pass.qwalk."""
    m = re.match(r"^caml(.*?)(_\d+)?$", sym)
    if not m or not m.group(1)[:1].isupper():
        return sym
    return m.group(1).replace("__", ".")


def short_path(path):
    """A source path relative to the build root, or its last two parts."""
    k = path.rfind("_build/default/")
    if k >= 0:
        return path[k + len("_build/default/"):]
    return "/".join(path.split("/")[-2:]) if path.startswith("/") else path


def table(title, counter, total, top):
    print(f"  {title}")
    for name, n in counter.most_common(top):
        print(f"    {100.0 * n / total:6.2f}%  {n:8d}  {name}")


def main():
    cmd = sys.argv[1:]
    if cmd[:1] == ["--"]:
        cmd = cmd[1:]
    if not cmd or cmd[0].startswith("-"):
        log("usage: python3 tools/profile.py -- COMMAND [ARG...]")
        return 2
    exe = shutil.which(cmd[0])
    if exe is None:
        log(f"profile: {cmd[0]}: not found")
        return 2
    exe = os.path.realpath(exe)
    segs = load_segments(exe)
    if segs is None:
        log(f"profile: {exe} is not a 64-bit little-endian ELF executable")
        return 2

    go_r, go_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(go_w)
        libc = ctypes.CDLL(None, use_errno=True)
        libc.personality(libc.personality(0xFFFFFFFF) | ADDR_NO_RANDOMIZE)
        if os.read(go_r, 1) != b"x":
            os._exit(0)
        try:
            os.execv(exe, [exe] + cmd[1:])
        finally:
            os._exit(127)
    os.close(go_r)
    rings, why = open_events(pid, 1_000_000_000 // HZ)
    if rings is None:
        os.close(go_w)
        os.waitpid(pid, 0)
        log(f"profile: {why}")
        return 2
    os.write(go_w, b"x")
    os.close(go_w)

    samples = []  # (time, pid, ip)
    lost = 0
    maps = libs = None

    def on_sample(ip, spid, t):
        samples.append((t, spid, ip))

    status = None
    while status is None:
        time.sleep(0.02)
        if maps is None:
            try:
                if os.path.realpath(f"/proc/{pid}/exe") == exe:
                    maps, libs = exe_mappings(pid, exe)
            except OSError:
                pass
        for r in rings:
            lost += r.drain(on_sample)
        done, st = os.waitpid(pid, os.WNOHANG)
        if done:
            status = st
    for r in rings:
        lost += r.drain(on_sample)
        os.close(r.fd)
    code = os.waitstatus_to_exitcode(status)

    if not maps:
        log("profile: the command exited before its mappings could be read")
        return code if code else 1
    site_times = [t for t, p, _ in samples if p != pid]
    if site_times:
        lo, hi = min(site_times), max(site_times)
        window = [(p, ip) for t, p, ip in samples if lo <= t <= hi]
    else:
        window = [(p, ip) for _, p, ip in samples]

    syms = Symbols(exe)
    exe_map = sorted(maps)

    def vaddr(ip):
        """[ip]'s link-time address: its file offset, placed by the load
        segment that holds it (PIE or not, the two can differ)."""
        for lo, hi, off in exe_map:
            if lo <= ip < hi:
                pos = ip - lo + off
                for p_off, p_size, p_vaddr in segs:
                    if p_off <= pos < p_off + p_size:
                        return pos - p_off + p_vaddr
                return None
        return None

    def library(ip):
        for lo, hi, name in libs:
            if lo <= ip < hi:
                return name
        return "[unknown]"

    resolved = [(p, ip, vaddr(ip)) for p, ip in window]
    files = syms.files([v for _, _, v in resolved if v is not None])
    period_ms = 1000.0 / HZ
    print(f"profile: {' '.join(cmd)}")
    print(f"  {len(samples)} samples, {len(window)} in the sites' busy window, "
          f"{lost} lost; one sample = {period_ms:.3f} ms of user CPU")
    for label, pick in (("coordinator", lambda p: p == pid),
                        ("sites", lambda p: p != pid)):
        fn, src = collections.Counter(), collections.Counter()
        procs = set()
        for p, ip, v in resolved:
            if not pick(p):
                continue
            procs.add(p)
            if v is None:
                name = library(ip)
                fn[name] += 1
                src[name] += 1
            else:
                fn[syms.function(v)] += 1
                src[files.get(v, "?")] += 1
        total = sum(fn.values())
        print(f"\n{label}: {len(procs)} process(es), {total} samples, "
              f"{total * period_ms / 1000.0:.2f} s of user CPU")
        if total:
            table("functions", fn, total, TOP)
            table("source files", src, total, TOP)
    return code


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
