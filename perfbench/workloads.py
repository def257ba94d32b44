"""The three workloads: browse, debug_console and corpus_analyze.

Each builds its inputs from the seed (untimed), then runs a closed loop.
The seed picks content: symbols, files, probe commands, payload bytes,
outcome order, strata.  The mix of operations per session is fixed per
workload, so runs with different seeds do comparable work.
"""

import json
import os
import random
from dataclasses import dataclass

import gen_guest
from gen_guest import Scenario
from gen_tree import COMMON, Tree, TreeSize
from harness import analyze_key, clock

SUBSYSTEM_LABELS = ("net", "fs", "mm", "drivers", "kernel", "sound")
DEFAULT_QUERY_LIMIT = 200  # code.query's documented default


@dataclass
class Case:
    run_id: str
    repo: str
    commit: str
    metadata: dict
    scenario: Scenario
    script: gen_guest.Script
    out_dir: str


def warm_read(root):
    """Read every file once so the first timed case does not pay for a
    cold page cache that later cases never see."""
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            with open(os.path.join(dirpath, name), "rb") as fh:
                while fh.read(1 << 20):
                    pass


def case_metadata(prefix, k, subsystem):
    """Sidecar record for case k; the patterns keep every analyze table
    defined on the first few runs of a loop."""
    return {"case_id": "%s-%d" % (prefix, k), "subsystem": subsystem,
            "vuln_type": ("UAF", "OOB")[k % 2], "is_race": (k // 2) % 2 == 1,
            "commit_msg_level": 1 + k % 3,
            "submit_time": ("2024-03-%02dT00:00:00Z" % (1 + k % 28)
                            if k % 2 == 0 else
                            "2025-01-%02dT00:00:00Z" % (1 + k % 28))}


def code_calls(rng, tree, fix, shares):
    """code.* steps: shares maps kind -> (unique, repeats); a repeat is an
    exact copy of an earlier call in the same session."""
    readable = [p for p in tree.readable_files() if p != tree.COMMON_PATH]
    steps = {"rare": [], "common": [], "defs": [], "read": [], "list": []}
    others = sorted(s for s in tree.rare if s != fix.symbol)
    for sym in [fix.symbol] + rng.sample(others, shares["rare"][0] - 1):
        steps["rare"].append(("code.query", {"name": sym, "mode": "references"},
                              ("refs_exact", sorted(tree.rare_sites[sym]))))
    for sym in rng.sample(COMMON, shares["common"][0]):
        steps["common"].append(("code.query", {"name": sym, "mode": "references"},
                                ("refs_limit", sym, DEFAULT_QUERY_LIMIT)))
    names = [fix.symbol, rng.choice(COMMON)]
    while len(names) < shares["defs"][0]:
        defs = tree.defs_by_file[rng.choice(sorted(tree.defs_by_file))]
        names.append(rng.choice(defs)[0])
    for name in names[:shares["defs"][0]]:
        steps["defs"].append(("code.query", {"name": name, "mode": "definitions"},
                              ("defs", tree.definitions(name))))
    for path in rng.sample(readable, shares["read"][0]):
        lines = tree.render(path)[0]
        start = rng.randint(1, max(1, len(lines) - 39))
        end = min(len(lines), start + 39)
        numbered = ["%d\t%s" % (n, lines[n - 1]) for n in range(start, end + 1)]
        steps["read"].append(("code.read", {"file": path, "start": start, "end": end},
                              ("read", numbered, start, end)))
    for path in rng.sample(sorted(tree.defs_by_file), shares["list"][0]):
        want = sorted((n, k, ln) for n, k, ln in tree.defs_by_file[path])
        steps["list"].append(("code.list_symbols", {"file": path},
                              ("symbols", want)))
    order = [s for group in steps.values() for s in group]
    rng.shuffle(order)
    for kind, (_unique, repeats) in shares.items():
        for original in rng.sample(steps[kind], repeats):
            at = order.index(original)
            order.insert(rng.randint(at + 1, len(order)), original)
    return order


class Workload:
    """One closed loop of rounds: a case, then analyze runs once the corpus
    they read is complete.  Interleaving spreads both kinds of sample over
    the whole run."""

    min_cases = 4  # the first cases, whose run directories analyze reads
    analyses_per_round = 1
    corrupt_key = False

    def __init__(self, bench, seed, tiny):
        self.bench = bench
        self.seed = seed
        self.work = bench.work
        self.repo = os.path.join(self.work, "repo")
        self.props = {}
        self.analyzed = []
        self.corpus = None  # (runs dirs, metadata path, answer key)

    def case(self, slot):
        raise NotImplementedError

    def run(self, seconds):
        """Rounds until ``seconds`` pass, and at least two rounds with
        analyze runs."""
        started = clock()
        i = 0
        while i < self.min_cases + 2 or clock() - started < seconds:
            self.round(i)
            i += 1

    def round(self, slot):
        case = self.keyed(self.case(slot), slot)
        self.bench.run_case(case, self.tree)
        if slot < self.min_cases:
            self.analyzed.append(case)
            if slot == self.min_cases - 1:
                self.corpus = self._small_corpus()
        if self.corpus:
            for _ in range(self.analyses_per_round):
                self.bench.run_analyze(*self.corpus)

    def _small_corpus(self):
        """The loop's first runs, keyed from the scripted outcomes."""
        runs = os.path.join(self.work, "runs")
        meta_path = os.path.join(self.work, "metadata.json")
        records = []
        for case in self.analyzed:
            records.append(dict(case.metadata, runs_dir=runs,
                                dir_name=os.path.basename(case.out_dir),
                                success=case.scenario.outcome == "crashed",
                                tool_counts=case.script.tool_counts()))
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump([c.metadata for c in self.analyzed], fh)
        return [runs], meta_path, analyze_key(records, [runs])

    def keyed(self, case, slot):
        """The case, with a deliberately wrong poc_iterations expectation
        for the first one when the self-check asks for a corrupted key."""
        if self.corrupt_key and slot == 0:
            case.script.compiles += 1
        return case

    def out_dir(self, slot, case_id):
        sub = "runs" if slot < self.min_cases else "runs-more"
        return os.path.join(self.work, sub, "%s-%03d" % (case_id, slot))


class Browse(Workload):
    """Large tree, code-heavy sessions, repeated attempts per commit."""

    FULL = TreeSize(c_files=2060, h_files=120, funcs_per_file=17,
                    rare_symbols=48, rare_refs=(3, 6), cases=8)
    TINY = TreeSize(c_files=60, h_files=6, funcs_per_file=4,
                    rare_symbols=12, rare_refs=(2, 4), cases=3)
    # kind -> (unique calls, exact repeats) per session
    SHARES = {"rare": (2, 1), "common": (1, 1), "defs": (2, 1),
              "read": (2, 0), "list": (2, 0)}
    ATTEMPTS = 2  # consecutive attempts on each fix commit
    analyses_per_round = 20  # each is a few ms on the small corpus

    def __init__(self, bench, seed, tiny):
        super().__init__(bench, seed, tiny)
        self.tree = Tree(seed, self.TINY if tiny else self.FULL)
        self.tree.write_repo(self.repo)
        warm_read(self.repo)
        self.scenarios = {}
        calls = sum(u + r for u, r in self.SHARES.values())
        self.props = {
            "source_files": len(self.tree.defs_by_file),
            "source_mb": round(self.tree.total_bytes / 1e6, 2),
            "fix_commits": len(self.tree.cases),
            "code_calls_per_session": calls,
            "rare_refs_share": sum(self.SHARES["rare"]) / calls,
            "common_refs_share": sum(self.SHARES["common"]) / calls,
            "repeat_query_share": sum(r for _u, r in self.SHARES.values()) / calls,
            "repeat_attempt_share": (self.ATTEMPTS - 1) / self.ATTEMPTS,
        }

    def case(self, slot):
        fix = self.tree.cases[(slot // self.ATTEMPTS) % len(self.tree.cases)]
        k = fix.index
        meta = case_metadata("browse", k, fix.path.split("/")[0])
        if k not in self.scenarios:
            rng = gen_guest.new_rng(self.seed, "browse-scn", k)
            self.scenarios[k] = Scenario(
                rng, self.work, "browse-%d" % k, fix.symbol,
                "crashed" if k % 2 == 0 else "no_crash", probes=2,
                probe_lines=(5, 10), symbols=[self.tree.cases[0].symbol])
        scn = self.scenarios[k]
        rng = gen_guest.new_rng(self.seed, "browse-slot", slot)
        script = gen_guest.browse_session(
            rng, scn, code_calls(rng, self.tree, fix, self.SHARES))
        return Case("browse-%03d" % slot, self.repo, fix.commit, meta, scn,
                    script, self.out_dir(slot, meta["case_id"]))


class DebugConsole(Workload):
    """Tiny tree, long console- and debugger-heavy sessions."""

    TREE = TreeSize(c_files=10, h_files=2, funcs_per_file=3,
                    rare_symbols=14, rare_refs=(1, 3), cases=12)
    OUTCOMES = ("crashed", "no_crash", "crashed", "cheat")
    min_cases = 8

    def __init__(self, bench, seed, tiny):
        super().__init__(bench, seed, tiny)
        self.tree = Tree(seed, self.TREE)
        self.tree.write_repo(self.repo)
        warm_read(self.repo)
        self.episodes = 2 if tiny else 12
        self.probes_per_episode = 3 if tiny else 8
        self.rotation = random.Random("debug-%d" % seed).randrange(4)
        self.props = {"episodes": self.episodes,
                      "probes_per_episode": self.probes_per_episode,
                      "probe_lines": (10, 30),
                      "outcomes": self.OUTCOMES}

    def debug_steps(self, rng, fix):
        tree = self.tree
        header = tree.headers[0][0]
        lines = tree.render(header)[0]
        read = ["%d\t%s" % (n, lines[n - 1]) for n in range(1, len(lines) + 1)]
        path = rng.choice(sorted(tree.defs_by_file))
        return [
            ("code.query", {"name": fix.symbol, "mode": "definitions"},
             ("defs", tree.definitions(fix.symbol))),
            ("code.query", {"name": fix.symbol, "mode": "references"},
             ("refs_exact", sorted(tree.rare_sites[fix.symbol]))),
            ("code.read", {"file": header, "start": 1, "end": len(lines)},
             ("read", read, 1, len(lines))),
            ("code.list_symbols", {"file": path},
             ("symbols", sorted((n, k, ln) for n, k, ln in tree.defs_by_file[path]))),
        ]

    def case(self, slot, episodes=None, probes=None, outcome=None, tag="debug"):
        fix = self.tree.cases[slot % len(self.tree.cases)]
        meta = case_metadata(tag, slot, fix.path.split("/")[0])
        if outcome is None:
            outcome = self.OUTCOMES[(slot + self.rotation) % len(self.OUTCOMES)]
        rng = gen_guest.new_rng(self.seed, tag, slot)
        scn = Scenario(rng, self.work, "%s-%d" % (tag, slot), fix.symbol,
                       outcome, probes=16, probe_lines=(10, 30),
                       symbols=[self.tree.cases[-1].symbol])
        self.props["mi_payload_bytes"] = scn.payload_sizes()
        script = gen_guest.debug_session(
            rng, scn, self.debug_steps(rng, fix),
            episodes or self.episodes, probes or self.probes_per_episode)
        return Case("%s-%03d" % (tag, slot), self.repo, fix.commit, meta, scn,
                    script, self.out_dir(slot, meta["case_id"]))



class CorpusAnalyze(DebugConsole):
    """Many run directories over one case universe, three attempt
    directories; set-up replicates real sessions of each outcome class."""

    TEMPLATE_OUTCOMES = ("crashed", "cheat", "no_crash") * 3
    CASES_PER_ROUND = 4
    min_cases = 0  # the loop's own runs are templates, not the corpus

    def __init__(self, bench, seed, tiny):
        super().__init__(bench, seed, tiny)
        self.universe = 30 if tiny else 400
        self.attempts = 3

    def run(self, seconds):
        self.templates = []
        for slot, outcome in enumerate(self.TEMPLATE_OUTCOMES):
            case = self.keyed(self.template(slot, outcome), slot)
            self.bench.run_case(case, self.tree)
            self.templates.append(case)
        self.corpus = self._build_corpus()
        warm_read(os.path.join(self.work, "corpus"))
        started = clock()
        i = 0
        while i < 4 or clock() - started < seconds:
            self.round(i)
            i += 1

    def template(self, slot, outcome):
        """A shorter debug-style session; three episodes keep its tool-call
        p90 on the plateau of large register dumps rather than on a slope
        of mixed calls."""
        return self.case(slot, episodes=3, probes=6, outcome=outcome,
                         tag="template")

    def round(self, i):
        """One analyze run of the corpus, then a few more template-shaped
        cases so case timings are sampled across the run too."""
        self.bench.run_analyze(*self.corpus)
        for k in range(self.CASES_PER_ROUND):
            slot = len(self.TEMPLATE_OUTCOMES) + self.CASES_PER_ROUND * i + k
            outcome = self.TEMPLATE_OUTCOMES[slot % len(self.TEMPLATE_OUTCOMES)]
            self.bench.run_case(self.template(slot, outcome), self.tree)

    def _build_corpus(self):
        rng = random.Random("corpus-%d" % self.seed)
        by_outcome = {}
        for case in self.templates:
            by_outcome.setdefault(case.scenario.outcome, []).append(case)
        # Seeded success rate per stratum: subsystem base, shifted by type
        # and race.
        base = {lb: rng.uniform(0.25, 0.65) for lb in SUBSYSTEM_LABELS}
        shift = {"UAF": 0.1, "DF": 0.05, "OOB": -0.1, "OTHER": 0.0}
        metadata, records = [], []
        tag = "%08x" % rng.getrandbits(32)
        for i in range(self.universe):
            metadata.append({
                "case_id": "c%s-%04d" % (tag, i),
                "subsystem": rng.choice(SUBSYSTEM_LABELS),
                "is_race": rng.random() < 0.3,
                "vuln_type": rng.choices(("UAF", "OOB", "DF", "OTHER"),
                                         (0.4, 0.3, 0.15, 0.15))[0],
                "commit_msg_level": rng.randint(1, 3),
                "submit_time": "%04d-%02d-%02dT12:00:00Z" % (
                    rng.choice((2023, 2024, 2025)), rng.randint(1, 12),
                    rng.randint(1, 28))})
        runs_dirs = [os.path.join(self.work, "corpus", "attempt-%d" % a)
                     for a in range(self.attempts)]
        for runs_dir in runs_dirs:
            for meta in metadata:
                p = base[meta["subsystem"]] + shift[meta["vuln_type"]] \
                    - (0.1 if meta["is_race"] else 0.0)
                ok = rng.random() < p
                outcome = "crashed" if ok else rng.choice(("cheat", "no_crash"))
                template = rng.choice(by_outcome[outcome])
                name = meta["case_id"]
                _replicate(template.out_dir, os.path.join(runs_dir, name), name)
                records.append(dict(meta, runs_dir=runs_dir, dir_name=name,
                                    success=ok,
                                    tool_counts=template.script.tool_counts()))
        meta_path = os.path.join(self.work, "corpus-metadata.json")
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(metadata, fh)
        key = analyze_key(records, runs_dirs)
        self.props.update({"run_dirs": len(records), "cases": self.universe,
                      "attempt_dirs": self.attempts,
                      "largest_table_n": len(records),
                      "success_share": round(sum(r["success"] for r in records)
                                             / len(records), 3)})
        return runs_dirs, meta_path, key


def _replicate(src, dest, case_id):
    """One run's artifact set under another case id: the two JSON files
    that carry the case id are rewritten, the rest are hard links."""
    os.makedirs(dest)
    for name in os.listdir(src):
        path = os.path.join(src, name)
        if name in ("verdict.json", "session.json"):
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            doc["case_id"] = case_id
            with open(os.path.join(dest, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
        else:
            os.link(path, os.path.join(dest, name))


WORKLOADS = {"browse": Browse, "debug_console": DebugConsole,
             "corpus_analyze": CorpusAnalyze}
