"""The end-to-end jtsim commands, each run once, as Markdown for the job summary.  `run TREE
OUT` runs TABLE on TREE's src, in OUT, and exits 1 on an unexpected exit code or when a jtsim
line of this checkout's README command-line block is not a row; `diff TREE OUT SAVED` then
names each output that differs from SAVED's, but for what holds a run's time, with the count
of its removed and added lines, the first four of them, how many of its numbers moved and the
largest |difference|, and how many other pieces moved.  A CSV's pieces are its cells, and a
text output's (`point --format json`, the `converge` and `xcheck` tables, the manifests) its
words and numbers.  TREE's lines print with `-` and SAVED's with `+`: CI runs the parent as
TREE against the change's `run` output as SAVED, so a change's own lines are the `+` ones.  A
row's stderr goes to <name>.err with TREE's path written as TREE and without source line
numbers, so the two trees' warnings compare even when a change moves the line that warns."""
import difflib, itertools, json, os, re, shlex, subprocess, sys, time

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
WEAK = ["--k1", "0.0707107", "--k2", "0.0707107"]
ULTRA = ["--k1", "0.7071068", "--k2", "0.7071068"]
FIG5_HARD = ["--delta", "1.95", "--k1", "1.95", "--k2", "1.95"]  # fig5 t = 1.95
# name -> (argv, expected exit code); stdout goes to <name>.out, stderr to <name>.err and a
# sweep's CSV to <name>.csv.
TABLE = {
    # the README command-line block's lines in its order, but for fig1, a row below
    "point": (["point", "--omega1", "1.05", "--omega2", "0.95", *WEAK, "--J", "0", "--N", "10"], 0),
    "point-json": (["point", "--delta", "0.1", *WEAK, "--format", "json"], 0),
    "custom": (["sweep", "custom", "--var", "J", "--tmin", "0", "--tmax", "0.1", "--step", "0.0025",
                *ULTRA, "--omega1", "0.2", "--omega2", "0.1"], 0),
    "converge": (["converge", "--delta", "0", *ULTRA], 0),
    "xcheck-n16": (["xcheck", "--delta", "0.05", *WEAK, "--N", "16"], 0),
    **{f"fig{i}": (["sweep", f"fig{i}"], code) for i, code in enumerate([3, 3, 0, 0, 0, 0], 1)},
    # a sweep through the block solver; its t = 2 row has a zero-frequency mode
    "fig1-n20": (["sweep", "fig1", "--N", "20", "--tmin", "1.5"], 3),
    # its t = 2 row is clean at N = 12, but its N = 16 recompute reads degenerate: the
    # verification lists it as failed and takes the drift over the other nine points
    "fig5-n12": (["sweep", "fig5", "--N", "12", "--tmin", "1.5"], 0),
    # fig5's cross-parity doublets through the block solver; its t = 2 row falls back
    "fig5-n24": (["sweep", "fig5", "--N", "24", "--tmin", "1.5", "--no-verify"], 3),
    # a huge frequency: its t > 0 rows have a gap below eps * ||H||
    "imprecise": (["sweep", "custom", "--var", "J", "--tmin", "0", "--tmax", "0.1", "--step", "0.05",
                   "--omega1", "1.6e307", "--omega2", "1", "--k1", "0", "--k2", "0", "--N", "10"], 3),
    "converge-n30": (["converge", "--delta", "0", *ULTRA, "--cutoffs", "10,20,30"], 0),
    "converge-fig5": (["converge", *FIG5_HARD, "--cutoffs", "20,30,40"], 0),  # most block rounds
    # the default sweep's cutoff and its N + 4 verification: E_N(S|B1) moves 0.26 -> 0.79
    "converge-fig5-n10": (["converge", *FIG5_HARD, "--cutoffs", "10,14"], 4),
    # fig5 t = 1.5: the N = 30 rung once fell back when a Krylov step added a column with
    # 1.4e-9 of its norm outside the space; _extend's one keep rule, more than 1e-12 of a
    # column's norm outside the span, keeps such a column, and with one Krylov space per
    # sector the ladder's 18 steps add none (the table is the same); max |d E_N| = 1.588e-2
    # is at least VERIFY_TOL
    "converge-stall": (["converge", "--delta", "1.5", "--k1", "1.5", "--k2", "1.5", "--cutoffs",
                        "15,30"], 4),
    # an ordinary point whose dense N = 10 rung hands its two lowest vectors to the N = 14
    # block rung, which hands its Ritz vectors to N = 20
    "converge-hand-off": (["converge", "--delta", "0.5", *ULTRA, "--cutoffs", "10,14,20"], 0),
    # the block path's slowest preset point at its threshold, BLOCK_MIN_N = 14
    "point-fig5-n14": (["point", *FIG5_HARD, "--N", "14", "--format", "json"], 0),
    "point-fig5-n40": (["point", *FIG5_HARD, "--N", "40", "--format", "json"], 0),
    "point-fig2-n40": (["point", "--delta", "0.5", *ULTRA, "--N", "40", "--format", "json"], 0),
    # the block run converges a cross-parity doublet 1.3e-12 apart, refuses it, and the row
    # shows the fallback in its solver line
    "point-doublet-n20": (["point", "--N", "20", "--delta", "1.8", "--k1", "4", "--k2", "4"], 0),
    # a zero-frequency mode at k1 = k2 = 0, where the transformed basis reads the lab map: its
    # .err shows where the warning points, at ground_state's caller, run_point in sweeps.py
    "point-k0-zero-mode": (["point", "--omega2", "0", "--N", "4"], 0),
    # the README's J != 0 zero-frequency point, which has no ground state (E = -0.6677 at
    # N = 10): it warns and exits 0 until ROADMAP item 10 refuses it with exit 2
    "point-zero-mode-hopping": (["point", "--omega1", "1", "--omega2", "0", "--k1", "0.5", "--k2",
                                 "0.5", "--J", "0.05"], 0),
    # a zero-frequency mode with k != 0: compare_bases solves it in each basis, and each
    # solve warns
    "xcheck-zero-mode": (["xcheck", "--omega1", "1", "--omega2", "0", "--k1", "0.5", "--k2", "0.5",
                          "--N", "6"], 0),
    # k1 = k2 = 0: compare_bases solves the lab basis only, and both energies are its energy
    "xcheck-k0": (["xcheck", "--k1", "0", "--k2", "0", "--N", "4"], 0),
    # below BLOCK_MIN_N with k != 0: both solves are dense, and the lab solve hands nothing on
    "xcheck-n12": (["xcheck", "--delta", "0.05", "--k1", "0.5", "--k2", "0.5", "--N", "12"], 0),
    # an -o path that names a directory is refused before the solve, in one error line
    "point-output-dir": (["point", "--N", "4", "-o", "."], 2),
    # a block-path point where a dense (2, N^2, N^2) parity stack would take 157 MB
    "point-n56": (["point", "--N", "56", "--delta", "0.5", *ULTRA], 0),
    # at N = 56 an N^2 x N^2 rotation matrix would take 79 MB; its shell blocks take 2.8 MB
    **{f"xcheck-n{n}": (["xcheck", "--delta", "0.05", *ULTRA, "--N", str(n)], 0)
       for n in (24, 40, 56)},
}
SWEEPS = [name for name, (argv, _) in TABLE.items() if argv[0] == "sweep"]


def argv_of(name):
    """A row's jtsim arguments; a sweep writes its CSV to <name>.csv."""
    return TABLE[name][0] + ["-o", f"{name}.csv"] * (name in SWEEPS)


def readme_lines_without_row():
    """The jtsim lines of the README's command-line block whose arguments are no row's."""
    block = open(README).read().split("## Command line", 1)[1].split("```")[1]
    rows = [argv_of(name) for name in TABLE]
    return [line for line in block.splitlines()
            if line.startswith("jtsim") and shlex.split(line)[1:] not in rows]


def run(tree, out):
    """Run every command; name -> (exit code, wall s, the child's CPU s, its peak RSS in MB)."""
    os.makedirs(out)
    root = os.path.abspath(tree)
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    print("Ran", subprocess.run([sys.executable, "-c", "import jtsim; print(jtsim.__file__)"],
                                env=env, capture_output=True, text=True).stdout.strip())
    results = {}
    for name in TABLE:
        argv = [sys.executable, "-m", "jtsim.cli", *argv_of(name)]
        err = os.path.join(out, f"{name}.err")
        with open(os.path.join(out, f"{name}.out"), "w") as fh, open(err, "w") as fe:
            start = time.perf_counter()
            child = subprocess.Popen(argv, env=env, cwd=out, stdout=fh, stderr=fe)
            _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        text = open(err).read()
        with open(err, "w") as fe:
            fe.write(re.sub(r"(\.py):\d+:", r"\1:", text.replace(root, "TREE")))
        results[name] = (child.returncode, time.perf_counter() - start,
                         usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)
    with open(os.path.join(out, "exit-codes.out"), "w") as fh:
        fh.writelines(f"{name}: {code}\n" for name, (code, *_) in results.items())
    return results


def read(path):
    """The lines of ``path`` ([] if missing), without a manifest's timestamp and runtime_s."""
    lines = open(path).read().splitlines() if os.path.exists(path) else []
    return [line for line in lines if not line.lstrip().startswith(('"timestamp"', '"runtime_s"'))]


def report(out, results):
    for name, (code, wall, cpu, rss) in results.items():
        text = read(os.path.join(out, f"{name}.out"))
        manifest = os.path.join(out, f"{name}.csv.manifest.json")
        paths = json.load(open(manifest))["solver_paths"] if os.path.exists(manifest) else None
        shown = f": `{' '.join(text)}`, solver_paths `{paths}`" if name in SWEEPS else ""
        print(f"- `{name}`: exit {code} (expected {TABLE[name][1]}), {wall:.2f} s, "
              f"{cpu:.2f} s CPU, {rss:.1f} MB peak RSS{shown}")
        if TABLE[name][0][0] in ("converge", "xcheck"):
            print("\n".join(f"  {row}" for row in ["```", *text, "```"]))
    return any(code != TABLE[name][1] for name, (code, *_) in results.items())


def number(cell):
    """A CSV cell's value, or None where it is not a number."""
    try:
        return float(cell)
    except ValueError:
        return None


def moved(old, new, csv):
    """How many numbers of two outputs' lines moved and the largest |difference|, and how many
    other pieces moved: a CSV line's pieces are its cells, any other line's the runs between
    spaces, commas, colons, brackets, braces, quotes and equals signs."""
    split = (lambda line: line.split(",")) if csv else re.compile(r"[^\s,:\[\]{}\"=]+").findall
    pairs = [(a, b) for x, y in itertools.zip_longest(old, new, fillvalue="")
             for a, b in itertools.zip_longest(split(x), split(y), fillvalue="") if a != b]
    values = [(number(a), number(b)) for a, b in pairs]
    deltas = [abs(b - a) for a, b in values if a is not None and b is not None]
    text = len(pairs) - len(deltas)
    return (f"{len(deltas)} numbers moved, max |d| {max(deltas, default=0.0):.3g}"
            + (f", {text} other pieces moved" if text else ""))


def diff(tree, out, saved):
    names = sorted((set(os.listdir(out)) | set(os.listdir(saved))) - {f"{n}.out" for n in SWEEPS})
    diffs = []
    for name in names:
        old, new = (read(os.path.join(d, name)) for d in (out, saved))
        if lines := [*difflib.unified_diff(old, new, n=0, lineterm="")][2:]:  # past the headers
            removed, added = (sum(line[0] == sign for line in lines) for sign in "-+")
            diffs.append(f"- `{name}` (-{removed} +{added} lines, "
                         f"{moved(old, new, name.endswith('.csv'))}): "
                         + " ".join(f"`{line}`" for line in lines[1:5]))
    print(f"Outputs of {tree} (-) against {saved} (+) ({len(names)} files): "
          + (f"{len(diffs)} differ" if diffs else "identical"), *diffs, sep="\n")


if __name__ == "__main__":
    mode, tree, out, *saved = sys.argv[1:]
    results = run(tree, out)
    if mode != "run":
        sys.exit(diff(tree, out, *saved))
    missing = readme_lines_without_row()
    for line in missing:
        print(f"- README line with no row: `{line}`")
    sys.exit(report(out, results) or bool(missing))
