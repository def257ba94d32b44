"""Seeded kernel-shaped source tree with a linear history of fix commits.

Every file is rendered from the plan and a per-file seed, so the answer
key for any ``code.*`` call is re-derived here from the plan, never from
the package under test:

- each file's definitions (name, kind, line) for ``code.list_symbols``;
- the single definition site of every planted rare symbol, and all of its
  call sites, for ``code.query`` definitions and references;
- every call site of the common helpers, for references queries that stop
  at the limit;
- file lines for ``code.read``.

Fix commit k rewrites one line in the body of rare symbol k without moving
any line, so definitions, references and line numbers hold at every
parent commit.  Reads avoid the files fixes touch.
"""

import random
import subprocess
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

SUBSYSTEMS = ("block", "crypto", "drivers/gpu", "drivers/net", "drivers/usb",
              "fs/btrfs", "fs/ext4", "kernel/sched", "mm", "net/core",
              "net/ipv4", "net/netfilter", "security", "sound/core")
COMMON = ("kmalloc", "kfree", "mutex_lock", "mutex_unlock", "spin_lock",
          "spin_unlock")
_COMMON_LINES = {
    "kmalloc": "\tctx->next = kmalloc(sizeof(*ctx), 0);",
    "kfree": "\tkfree(ctx->next);",
    "mutex_lock": "\tmutex_lock(&ctx->lock);",
    "mutex_unlock": "\tmutex_unlock(&ctx->lock);",
    "spin_lock": "\tspin_lock(&ctx->slock);",
    "spin_unlock": "\tspin_unlock(&ctx->slock);",
}
_NOUNS = ("chain", "table", "flow", "queue", "skb", "sock", "inode", "page",
          "ring", "desc", "mapping", "extent", "urb", "fence")
_VERBS = ("lookup", "destroy", "release", "attach", "flush", "commit",
          "insert", "detach", "rehash", "unlink")
_FILLER = ("Handles the teardown path when the last reference is dropped.",
           "Callers hold the object lock across the state transition.",
           "The table is walked under RCU; writers take the mutex.",
           "Returns zero on success or a negative error code.")
FIX_LINE = "\tret = arg;"
FIXED_LINE = "\tret = arg > 0 ? arg : -22;"


@dataclass(frozen=True)
class TreeSize:
    c_files: int
    h_files: int
    funcs_per_file: int
    rare_symbols: int
    rare_refs: Tuple[int, int]  # call sites per rare symbol, inclusive
    cases: int  # fix commits


@dataclass
class CFile:
    path: str
    prefix: str
    header: str
    seed: int
    rare_defs: List[str] = field(default_factory=list)
    # function index -> rare symbol called from that function's body
    rare_calls: Dict[int, str] = field(default_factory=dict)


@dataclass
class FixCase:
    index: int
    symbol: str  # the rare symbol whose body the fix changes
    path: str
    commit: str = ""
    message: str = ""


class Tree:
    """Plan, renderer and answer key of one generated tree."""

    def __init__(self, seed, size: TreeSize):
        self.size = size
        rng = random.Random("tree-%d" % seed)
        self.headers = []
        for i in range(size.h_files):
            sub = SUBSYSTEMS[i % len(SUBSYSTEMS)]
            name = "%s_%d" % (sub.replace("/", "_"), i)
            self.headers.append(("include/linux/%s.h" % name, name))
        self.files: List[CFile] = []
        for i in range(size.c_files):
            sub = SUBSYSTEMS[rng.randrange(len(SUBSYSTEMS))]
            prefix = "%s%d" % (sub.split("/")[-1], i)
            self.files.append(CFile(
                path="%s/%s_%d.c" % (sub, prefix, i), prefix=prefix,
                header=self.headers[rng.randrange(len(self.headers))][0],
                seed=rng.getrandbits(32)))
        self.by_path = {f.path: f for f in self.files}

        self.rare: Dict[str, str] = {}  # symbol -> defining path
        names = set()
        while len(names) < size.rare_symbols:
            names.add("%s_%s_%d" % (rng.choice(_NOUNS), rng.choice(_VERBS),
                                    rng.randrange(100, 1000)))
        for sym in sorted(names):
            home = rng.choice(self.files)
            home.rare_defs.append(sym)
            self.rare[sym] = home.path
            for _ in range(rng.randint(*size.rare_refs)):
                for _attempt in range(50):
                    caller = rng.choice(self.files)
                    func = rng.randrange(size.funcs_per_file)
                    if caller is not home and func not in caller.rare_calls:
                        caller.rare_calls[func] = sym
                        break
        fix_syms = rng.sample(sorted(self.rare), size.cases)
        self.cases = [FixCase(k, sym, self.rare[sym]) for k, sym in
                      enumerate(fix_syms)]
        self.fix_paths = {c.path for c in self.cases}
        self.total_bytes = 0

    # rendering ---------------------------------------------------------------

    def render(self, path, fixed=()):
        """(lines, defs, sites) of one file; ``fixed`` names the rare
        symbols whose fix is applied.  defs are (name, kind, line); sites
        maps each common helper or rare symbol called here to its lines."""
        if path.startswith("include/"):
            return self._render_header(path)
        f = self.by_path[path]
        rng = random.Random(f.seed)
        p, up = f.prefix, f.prefix.upper()
        lines = ["// SPDX-License-Identifier: GPL-2.0", "/*",
                 " * %s: synthetic unit %s" % (path, p), " *"]
        lines += [" * " + rng.choice(_FILLER) for _ in range(3)]
        lines += [" */", "#include <linux/kernel.h>",
                  "#include <%s>" % f.header[len("include/"):], ""]
        defs = []
        sites: Dict[str, List[int]] = {}

        def add(text, define=None):
            lines.append(text)
            if define:
                defs.append((define[0], define[1], len(lines)))

        add("#define %s_MAX 64" % up, ("%s_MAX" % up, "macro"))
        add("#define %s_FLAG 0x1" % up, ("%s_FLAG" % up, "macro"))
        add("")
        add("struct %s_ctx {" % p, ("%s_ctx" % p, "struct"))
        add("\tint use;")
        add("\tunsigned long flags;")
        add("\tstruct %s_ctx *next;" % p)
        add("};")
        add("")
        add("static int %s_count = 0;" % p, ("%s_count" % p, "global"))
        add("")
        funcs = [("%s_op_%d" % (p, j), True) for j in range(self.size.funcs_per_file)]
        funcs += [(sym, False) for sym in f.rare_defs]
        for j, (name, local) in enumerate(funcs):
            qual = "static int" if local else "int"
            add("%s %s(struct %s_ctx *ctx, int arg)" % (qual, name, p),
                (name, "function"))
            add("{")
            add("\tint ret = 0;")
            add("")
            for _ in range(2):
                helper = COMMON[rng.randrange(len(COMMON))]
                add(_COMMON_LINES[helper])
                sites.setdefault(helper, []).append(len(lines))
            add("\tctx->flags |= %s_FLAG;" % up)
            callee = f.rare_calls.get(j) if local else None
            if callee:
                add("\tret = %s(ctx, arg + %d);" % (callee, rng.randrange(64)))
                sites.setdefault(callee, []).append(len(lines))
            elif not local:
                add("\tret = %s_op_0(ctx, arg);" % p)
            elif j > 0:
                add("\tret = %s_op_%d(ctx, arg);" % (p, j - 1))
            else:
                add("\t%s_count++;" % p)
            add(FIXED_LINE if name in fixed else FIX_LINE)
            add('\tpr_debug("%s: step %d\\n", arg);' % (p, rng.randrange(1000)))
            add("\treturn ret;")
            add("}")
            add("")
        return lines, defs, sites

    def _render_header(self, path):
        name = dict(self.headers)[path]
        up = name.upper()
        lines, defs = [], []

        def add(text, define=None):
            lines.append(text)
            if define:
                defs.append((define[0], define[1], len(lines)))

        add("/* SPDX-License-Identifier: GPL-2.0 */")
        add("#ifndef _%s_H" % up)
        add("#define _%s_H" % up, ("_%s_H" % up, "macro"))
        add("")
        add("enum %s_state {" % name, ("%s_state" % name, "enum"))
        for state in ("IDLE", "BUSY", "DEAD"):
            add("\t%s_%s," % (up, state))
        add("};")
        add("")
        add("typedef unsigned int %s_id_t;" % name, ("%s_id_t" % name, "typedef"))
        add("")
        add("#define %s_LIMIT 128" % up, ("%s_LIMIT" % up, "macro"))
        add("")
        add("struct %s_ops {" % name, ("%s_ops" % name, "struct"))
        add("\tint (*open)(void *priv);")
        add("\tvoid (*close)(void *priv);")
        add("};")
        add("")
        add("#endif")
        return lines, defs, {}

    @staticmethod
    def _common_file():
        lines, defs = ["// SPDX-License-Identifier: GPL-2.0",
                       "#include <linux/kernel.h>", ""], []
        for helper in COMMON:
            ret = "void *" if helper == "kmalloc" else "void "
            lines.append("%s%s(void *obj, int flags)" % (ret, helper))
            defs.append((helper, "function", len(lines)))
            lines += ["{", "\treturn%s;" % (" 0" if helper == "kmalloc" else ""),
                      "}", ""]
        return lines, defs

    COMMON_PATH = "lib/common.c"

    # git history -------------------------------------------------------------

    def write_repo(self, repo):
        """A bare repository holding the base tree and one commit per fix.

        The history is streamed through ``git fast-import``, so no working
        tree or loose objects are written: the set-up leaves little dirty
        data behind to be flushed while the timed cases run.
        """
        self.defs_by_file: Dict[str, List[Tuple[str, str, int]]] = {}
        self.common_sites: Dict[str, Dict[str, frozenset]] = {h: {} for h in COMMON}
        self.rare_sites = {sym: [] for sym in self.rare}
        subprocess.run(["git", "init", "--quiet", "--bare", "-b", "main", repo],
                       check=True, capture_output=True)
        proc = subprocess.Popen(["git", "-C", repo, "fast-import", "--quiet"],
                                stdin=subprocess.PIPE)
        out = proc.stdin

        def commit(message, files):
            msg = message.encode()
            out.write(b"commit refs/heads/main\n"
                      b"committer bench <bench@localhost> 1717200000 +0000\n"
                      b"data %d\n%s\n" % (len(msg), msg))
            for path, lines in files:
                data = ("\n".join(lines) + "\n").encode()
                out.write(b"M 100644 inline %s\ndata %d\n%s\n"
                          % (path.encode(), len(data), data))
                yield len(data)

        def base_files():
            for path in [h for h, _ in self.headers] + [f.path for f in self.files]:
                lines, defs, sites = self.render(path)
                self.defs_by_file[path] = defs
                for name, where in sites.items():
                    if name in self.common_sites:
                        self.common_sites[name][path] = frozenset(where)
                    else:
                        self.rare_sites[name] += [(path, ln, lines[ln - 1])
                                                  for ln in where]
                yield path, lines
            lines, defs = self._common_file()
            self.defs_by_file[self.COMMON_PATH] = defs
            yield self.COMMON_PATH, lines

        try:
            self.total_bytes = sum(commit("base: import synthetic tree",
                                          base_files()))
            fixed = set()
            for case in self.cases:
                fixed.add(case.symbol)
                case.message = ("%s: fix use-after-free in %s\n\nThe error "
                                "path kept a stale reference; clamp the "
                                "return value." % (case.path.split("/")[0],
                                                   case.symbol))
                sum(commit(case.message,
                           [(case.path, self.render(case.path, fixed)[0])]))
        finally:
            out.close()
            if proc.wait() != 0:
                raise RuntimeError("git fast-import failed")
        commits = git(repo, "rev-list", "--reverse", "main").split()
        for case, sha in zip(self.cases, commits[1:]):
            case.commit = sha

    # answer keys -------------------------------------------------------------

    def definitions(self, name):
        """Expected definition hits for ``name`` as a sorted list."""
        out = []
        for path, defs in self.defs_by_file.items():
            out += [(path, line, kind) for n, kind, line in defs if n == name]
        return sorted(out)

    def readable_files(self):
        return sorted(p for p in self.defs_by_file if p not in self.fix_paths)


def git(repo, *args):
    proc = subprocess.run(["git", "-C", repo, *args],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("git %s failed: %s" % (args[0], proc.stderr))
    return proc.stdout
