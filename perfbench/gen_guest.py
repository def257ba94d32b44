"""Seeded mock-guest scenarios and scripted agent sessions, with answer keys.

A scenario is the JSON file the package's mock guest loads: console rules,
crash text and the scripted debugger table.  A session is a list of steps,
each a model action plus the outcome the generator expects for it.  Every
expected outcome is written here from what the generator put into the
scenario or the tree; nothing is read back from the package.

MI replies are built as Python structures and serialised by this module's
own writer, so the expected payload of every debugger call is the structure
itself.
"""

import json
import os
import random
import re

TOOL_CATEGORY = {
    "code.list_symbols": "code_browsing", "code.query": "code_browsing",
    "code.read": "code_browsing", "vm.start": "vm_management",
    "vm.restart": "vm_management", "vm.compile_upload": "vm_management",
    "vm.exec": "vm_interaction", "vm.signal": "vm_interaction",
    "dbg.breakpoint": "debugging", "dbg.inspect": "debugging",
    "dbg.raw": "debugging", "dbg.resume": "debugging",
}

PROMPT = "repro$ "
BOOT_BANNER = ("[    0.000000] Linux version 6.1.0-bench (gcc 12.2.0)\n"
               "[    1.200000] Freeing unused kernel memory: 1476K\n"
               "bench login: root (automatic login)")
REGS_LARGE = 64  # registers in the large dump, about 2.6 KB of MI text
MEM_SMALL, MEM_LARGE = 16, 4096  # bytes read per memory inspect
ADDR_SMALL, ADDR_LARGE = "0xffff888000001000", "0xffff888000200000"
FRAMES = 12

_NOISE = (
    "usb 1-1: new high-speed USB device number {n} using xhci_hcd",
    "e1000e 0000:00:19.0 eth0: NIC Link is Up 1000 Mbps Full Duplex",
    'audit: type=1400 audit({n}.{m}:{k}): apparmor="STATUS" '
    'operation="profile_load" name="bench_{k}"',
    "nf_conntrack: default automatic helper assignment has been turned off",
    "EXT4-fs (sda1): mounted filesystem with ordered data mode",
    "WARNING: CPU: 1 PID: {n} at net/core/dev.c:{k} netdev_watchdog+0x{m:x}/0x2f0",
    "perf: interrupt took too long ({n} > {m}), lowering "
    "kernel.perf_event_max_sample_rate to {k}",
    "rcu: INFO: rcu_preempt detected stalls on CPUs/tasks: {{ {k}-... }}",
)
_OUTPUT = (
    "entry {k}: state=active refs={n} flags=0x{m:x}",
    "  {n:08x} {m:08x} {k:08x} {n:08x}",
    "queue {k}: depth={n} dropped={m}",
    "total {n}",
)
HELPER_SOURCES = (
    "#include <stdio.h>\nint main(void) { puts(\"probe A\"); return 0; }\n",
    "#include <stdio.h>\nint main(void) { puts(\"probe B\"); return 1; }\n",
)
POC_SOURCE = ("#include <stdio.h>\n#include <unistd.h>\n\n"
              "int main(void)\n{\n\tputs(\"triggering\");\n"
              "\treturn (int)getpid() & 1;\n}\n")
REPORT = ("# Reproduction report\n\nThe fix clamps the return value on the "
          "error path; at the parent commit the stale reference is reused "
          "and the kernel reports a memory-safety violation.\n")


# --- MI writer ----------------------------------------------------------------

def mi_value(value):
    if isinstance(value, str):
        return '"%s"' % (value.replace("\\", "\\\\").replace('"', '\\"')
                         .replace("\n", "\\n"))
    if isinstance(value, dict):
        return "{%s}" % ",".join("%s=%s" % (k, mi_value(v))
                                 for k, v in value.items())
    return "[%s]" % ",".join(
        "%s=%s" % (v[0], mi_value(v[1])) if isinstance(v, tuple) else mi_value(v)
        for v in value)


def mi_record(prefix, kind, payload):
    return prefix + kind + "".join(",%s=%s" % (k, mi_value(v))
                                   for k, v in payload.items())


# --- crash and console text -------------------------------------------------------

CRASH_KINDS = (("UAF", "slab-use-after-free"), ("OOB", "slab-out-of-bounds"),
               ("DF", "double-free"))


def crash_text(rng, func, kind):
    """A KASAN report block; returns (lines, crash_class)."""
    crash_class, subtype = kind
    ts = "[%12.6f]" % (100 + rng.random() * 900)
    pid = rng.randrange(200, 30000)
    body = ["=" * 66,
            "BUG: KASAN: %s in %s+0x%x/0x%x" % (subtype, func,
                                                 rng.randrange(16, 512), 0x400),
            "Read of size 8 at addr ffff8880%08x by task poc/%d"
            % (rng.getrandbits(32), pid),
            "",
            "CPU: 0 PID: %d Comm: poc Not tainted 6.1.0-bench #1" % pid,
            "Hardware name: QEMU Standard PC (i440FX + PIIX, 1996)",
            "Call Trace:", " <TASK>", " dump_stack_lvl+0x44/0x5c",
            " print_report+0x16a/0x470", " kasan_report+0xc4/0xf0",
            " %s+0x%x/0x400" % (func, rng.randrange(16, 512)),
            " do_syscall_64+0x3a/0x90", " </TASK>", "", "=" * 66]
    return ["%s %s" % (ts, ln) if ln else ts for ln in body], crash_class


def _noise(rng):
    ts = "[%12.6f]" % (10 + rng.random() * 990)
    text = rng.choice(_NOISE).format(n=rng.randrange(1, 5000),
                                     m=rng.randrange(1, 5000),
                                     k=rng.randrange(1, 999))
    return "%s %s" % (ts, text)


def _output(rng):
    return rng.choice(_OUTPUT).format(n=rng.randrange(1, 1 << 30),
                                      m=rng.randrange(1, 1 << 30),
                                      k=rng.randrange(1, 4096))


def probe_reply(rng, lines):
    """(text lines, kernel lines): command output interleaved with printk
    noise, about one line in three from the kernel."""
    out, kernel = [], []
    for _ in range(lines):
        if rng.random() < 0.33:
            ln = _noise(rng)
            kernel.append(ln)
        else:
            ln = _output(rng)
        out.append(ln)
    return out, kernel


# --- scenarios ------------------------------------------------------------------

class Scenario:
    """One scenario file plus everything its answer keys need."""

    def __init__(self, rng, directory, name, vuln, outcome, probes,
                 probe_lines, symbols):
        self.path = os.path.join(directory, name + ".json")
        self.vuln = vuln
        self.outcome = outcome  # crashed | cheat | no_crash
        self.probes = {}  # command -> (lines, kernel lines)
        rules = []
        for i in range(probes):
            cmd = rng.choice(("cat /proc/net/bench_%d", "dmesg | tail -n %d",
                              "cat /sys/kernel/debug/bench/state_%d")) % i
            self.probes[cmd] = probe_reply(rng, rng.randint(*probe_lines))
            rules.append({"pattern": "^%s$" % re.escape(cmd),
                          "response": "\n".join(self.probes[cmd][0]) + "\n"})
        rules.append({"pattern": r"^uname -r$", "response": "6.1.0-bench\n"})
        self.trigger_reply = ["triggering"]
        if outcome == "no_crash":
            rules.append({"pattern": r"^\./poc$", "response": "triggering\n"})
            self.crash_lines, self.crash_class = [], None
        else:
            kind = CRASH_KINDS[rng.randrange(len(CRASH_KINDS))]
            self.crash_lines, self.crash_class = crash_text(rng, vuln, kind)
            with open(os.path.join(directory, name + ".crash"), "w",
                      encoding="utf-8") as fh:
                fh.write("\n".join(self.crash_lines) + "\n")
            rules.append({"pattern": r"^\./poc$", "response": "triggering\n",
                          "post": "emit_crash:%s.crash" % name})

        self.regs = {"register-values": [
            {"number": str(i), "value": "0x%016x" % rng.getrandbits(64)}
            for i in range(REGS_LARGE)]}
        self.mem_large = {"memory": [{
            "begin": ADDR_LARGE, "offset": "0x0000000000000000",
            "end": "0x%x" % (int(ADDR_LARGE, 16) + MEM_LARGE),
            "contents": "%0*x" % (2 * MEM_LARGE, rng.getrandbits(8 * MEM_LARGE))}]}
        small = "%0*x" % (2 * MEM_SMALL, rng.getrandbits(8 * MEM_SMALL))
        self.mem_small = {"memory": [{"begin": ADDR_SMALL, "offset": "0x0",
                                      "end": ADDR_SMALL, "contents": small}]}
        self.stack = {"stack": [("frame", {
            "level": str(i), "addr": "0xffffffff81%06x" % rng.getrandbits(24),
            "func": "%s_caller_%d" % (vuln, i), "file": "net/core/dev.c",
            "line": str(rng.randrange(1, 5000))}) for i in range(FRAMES)]}
        self.stop = {"reason": "breakpoint-hit", "disp": "keep", "bkptno": "1",
                     "frame": {"addr": "0xffffffff81a2b340", "func": vuln,
                               "args": [], "file": "net/core/dev.c",
                               "line": "612"},
                     "thread-id": "1", "stopped-threads": "all"}
        self.expressions = {"ctx->use": str(rng.randrange(1, 9)),
                            "arg": "0x%x" % rng.randrange(1, 4096)}
        self.symbols = [vuln] + list(symbols)
        scripted = {
            "-data-list-register-values x": [
                mi_record("^", "done", self.regs), "(gdb)"],
            "-data-read-memory-bytes %s %d" % (ADDR_LARGE, MEM_LARGE): [
                mi_record("^", "done", self.mem_large), "(gdb)"],
            "-stack-list-frames": [mi_record("^", "done", self.stack), "(gdb)"],
            "-exec-next": ["^running", '*running,thread-id="all"',
                           mi_record("*", "stopped", self.stop), "(gdb)"],
        }
        doc = {"boot_banner": BOOT_BANNER, "prompt": PROMPT, "rules": rules,
               "debug": {"symbols": self.symbols,
                         "expressions": self.expressions,
                         "memory": {ADDR_SMALL: small},
                         "scripted": scripted}}
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def payload_sizes(self):
        """Bytes of MI text per scripted reply, small and large."""
        small = {"memory": self.mem_small["memory"]}
        return {name: len(mi_record("^", "done", payload)) for name, payload in
                (("registers", self.regs), ("memory_large", self.mem_large),
                 ("memory_small", small), ("stack", self.stack))}


# --- sessions -------------------------------------------------------------------

class Script:
    """Steps of one scripted session and the case-level answer key."""

    def __init__(self):
        self.steps = []  # (action dict, expectation)
        self.bp_set = 0
        self.bp_hit = 0
        self.compiles = 0

    def call(self, name, args, expect):
        self.steps.append(({"kind": "tool_call", "name": name, "args": args,
                            "input_tokens": 1500, "output_tokens": 80},
                           expect))
        if name == "vm.compile_upload":
            self.compiles += 1

    def finalize(self):
        self.steps.append(({"kind": "finalize", "poc_source": POC_SOURCE,
                            "report": REPORT, "input_tokens": 1500,
                            "output_tokens": 600}, None))

    def tool_counts(self):
        counts = {}
        for action, _e in self.steps:
            if action["kind"] == "tool_call":
                cat = TOOL_CATEGORY[action["name"]]
                counts[cat] = counts.get(cat, 0) + 1
        return counts


def add_trigger(script, scn):
    """Compile the PoC and run it; the case's outcome is decided here."""
    script.call("vm.compile_upload", {"source": POC_SOURCE,
                                      "dest_path": "/home/repro/poc"},
                ("upload", "/home/repro/poc"))
    lines = scn.trigger_reply + scn.crash_lines
    script.call("vm.exec", {"command": "./poc", "timeout_s": 10},
                ("exec", lines, list(scn.crash_lines)))


def debug_session(rng, scn, code_steps, episodes, probes_per_episode):
    """Console- and debugger-heavy session: breakpoint-hit stops under which
    console calls must fail, large MI dumps, a restart, repeated compiles,
    and a seeded outcome.  ``code_steps`` are (name, args, expect) code.*
    calls made at the start."""
    s = Script()
    s.call("vm.start", {}, ("ok",))
    for name, args, expect in code_steps:
        s.call(name, args, expect)
    s.call("dbg.breakpoint", {"action": "set", "location": scn.vuln},
           ("bp", scn.vuln))
    s.call("dbg.breakpoint", {"action": "set", "location": scn.symbols[1]},
           ("bp", scn.symbols[1]))
    s.call("dbg.breakpoint", {"action": "set", "location": "no_such_symbol"},
           ("error", "UnresolvableLocation"))
    s.bp_set = 2
    probes = sorted(scn.probes)
    restart_at = episodes // 2
    compile_at = {1 % episodes: 0, 3 % episodes: 1}
    if episodes > 2:
        compile_at[episodes - 2] = 0  # repeats helper A's source
    for e in range(episodes):
        for _ in range(probes_per_episode):
            cmd = rng.choice(probes)
            lines, kernel = scn.probes[cmd]
            s.call("vm.exec", {"command": cmd}, ("exec", lines, kernel))
        s.call("dbg.inspect", {"what": "registers"}, ("records", [scn.regs]))
        if e % 2:
            s.call("dbg.inspect", {"what": "memory", "address": ADDR_LARGE,
                                   "length": MEM_LARGE},
                   ("records", [scn.mem_large]))
        else:
            s.call("dbg.inspect", {"what": "memory", "address": ADDR_SMALL,
                                   "length": MEM_SMALL},
                   ("records", [scn.mem_small]))
        expr = rng.choice(sorted(scn.expressions))
        s.call("dbg.inspect", {"what": "expression", "expression": expr},
               ("records", [{"value": scn.expressions[expr]}]))
        s.call("dbg.raw", {"command": "-stack-list-frames"},
               ("raw", [("done", scn.stack)]))
        s.call("dbg.raw", {"command": "-exec-next"},
               ("raw", [("running", {}), ("running", {"thread-id": "all"}),
                        ("stopped", scn.stop)]))
        s.bp_hit += 1
        for _ in range(2):
            s.call("vm.exec", {"command": rng.choice(probes)},
                   ("error", "DebuggeeHalted"))
        s.call("dbg.inspect", {"what": "registers"}, ("records", [scn.regs]))
        s.call("dbg.resume", {}, ("gate_running",))
        if e in compile_at:
            which = compile_at[e]
            dest = "/home/repro/helper_%d" % which
            s.call("vm.compile_upload", {"source": HELPER_SOURCES[which],
                                         "dest_path": dest}, ("upload", dest))
            s.call("vm.exec", {"command": "./helper_%d" % which},
                   ("exec", [], []))
        if e == restart_at:
            s.call("vm.restart", {}, ("ok",))
    if scn.outcome == "cheat":
        s.call("dbg.raw", {"command": "set var ctx->use = 0"},
               ("raw", [("done", {})]))
    else:
        s.call("dbg.raw", {"command": "info frame"}, ("raw", [("done", {})]))
    add_trigger(s, scn)
    s.finalize()
    return s


def browse_session(rng, scn, code_steps):
    """Code-browsing session: the code.* calls, a light debugger touch, one
    compile and one trigger, then a restart to a clean guest."""
    s = Script()
    s.call("vm.start", {}, ("ok",))
    for name, args, expect in code_steps:
        s.call(name, args, expect)
    s.call("dbg.breakpoint", {"action": "set", "location": scn.vuln},
           ("bp", scn.vuln))
    s.bp_set = 1
    s.call("dbg.inspect", {"what": "registers"}, ("records", [scn.regs]))
    s.call("dbg.raw", {"command": "-break-list"}, ("raw", [("done", {})]))
    s.call("dbg.resume", {}, ("error", "NotStopped"))
    add_trigger(s, scn)
    s.call("vm.restart", {}, ("ok",))
    s.call("vm.exec", {"command": "uname -r"}, ("exec", ["6.1.0-bench"], []))
    s.finalize()
    return s


def new_rng(*parts):
    return random.Random("-".join(str(p) for p in parts))
