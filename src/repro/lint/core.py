"""Framework core: findings, rule registry, suppressions, file driver.

Everything here is dependency-free (stdlib ``ast`` + ``tokenize``), so the
linter runs in any environment that can parse the sources — including CI
tiers that have not installed the package's numeric dependencies.

Design points
-------------

*Fingerprints, not line numbers.*  A finding's identity is the SHA-1 of
``rule | path | enclosing qualname | normalised source line``.  Unrelated
edits that shift line numbers leave fingerprints untouched, so the SARIF
report's ``partialFingerprints`` match one alert across commits; editing
the offending line itself makes the finding a new alert, which is exactly
when a human should re-look.

*Suppressions need a reason.*  ``# repro-lint: allow[RL001] holding the
lock here is bounded by X`` trailing the violating line (or standing
alone on the line directly above it) suppresses that rule on that line
only.  A suppression without a reason is itself a finding (``RL000``) —
silencing a checker is an auditable decision, not a shrug.
"""

from __future__ import annotations

import ast
import hashlib
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

#: Framework-level diagnostics (parse failures, malformed suppressions)
#: are reported under this pseudo-rule code.
FRAMEWORK_CODE = "RL000"

_SUPPRESSION_RE = re.compile(
    r"#\s*repro-lint:\s*allow\[(?P<codes>[A-Z0-9,\s]+)\]\s*(?P<reason>.*)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str          # repo-relative posix path (stable across machines)
    line: int
    col: int
    message: str
    line_text: str = ""
    qualname: str = "<module>"

    @property
    def fingerprint(self) -> str:
        """Line-drift-tolerant identity (SARIF ``partialFingerprints``)."""
        normalised = " ".join(self.line_text.split())
        key = f"{self.rule}|{self.path}|{self.qualname}|{normalised}"
        return hashlib.sha1(key.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict:
        """JSON-ready representation (includes the fingerprint)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "line_text": self.line_text,
            "qualname": self.qualname,
            "fingerprint": self.fingerprint,
        }

    def render(self) -> str:
        """``path:line:col: RL00x message`` for the text report."""
        return (f"{self.path}:{self.line}:{self.col}: {self.rule} "
                f"{self.message}")

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)


#: Scopes a rule can run at: ``module`` rules see one file
#: (:class:`ModuleContext`); ``project`` rules see the whole program
#: (:class:`repro.lint.project.ProjectContext`).
SCOPES = ("module", "project")


@dataclass(frozen=True)
class Rule:
    """A registered checker: metadata plus its check callable."""

    code: str
    title: str
    check: Callable[..., list[Finding]]
    rationale: str = ""
    scope: str = "module"


#: The pluggable registry; populated by the :func:`rule` decorator at
#: import time of :mod:`repro.lint.rules` /
#: :mod:`repro.lint.flowrules` (or of third-party extensions).
RULES: dict[str, Rule] = {}


def rule(code: str, title: str, scope: str = "module"):
    """Class-decorator-free registration: ``@rule("RL001", "...")``.

    The decorated callable receives a :class:`ModuleContext` (``scope=
    "module"``) or a :class:`~repro.lint.project.ProjectContext`
    (``scope="project"``) and returns a list of :class:`Finding`; its
    docstring becomes the rule's rationale (shown by ``--list-rules``).
    """
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}")

    def decorate(check: Callable[..., list[Finding]]):
        if code in RULES:
            raise ValueError(f"duplicate rule code {code}")
        RULES[code] = Rule(code=code, title=title, check=check,
                           rationale=(check.__doc__ or "").strip(),
                           scope=scope)
        return check

    return decorate


@dataclass(frozen=True)
class LintConfig:
    """Repo-aware scoping knobs shared by every rule.

    Paths are repo-relative posix prefixes.  Tests inject synthetic
    ``rel`` paths (e.g. ``src/repro/serving/fixture.py``) to place a
    fixture inside or outside a rule's scope without touching the tree.
    """

    #: RL002 (unbounded waits) applies under these prefixes.
    bounded_wait_scope: tuple[str, ...] = (
        "src/repro/serving/", "src/repro/training/", "src/repro/service/",
        "src/repro/netserve/", "src/repro/loadgen/", "src/repro/index/")
    #: RL004 (atomic writes) applies under these prefixes.
    atomic_scope: tuple[str, ...] = (
        "src/repro/models/", "src/repro/serving/", "src/repro/training/",
        "src/repro/tokenization/")
    #: Functions implementing the atomic-write discipline itself are
    #: exempt from RL004 (they are its temp-file machinery).
    atomic_impl_prefixes: tuple[str, ...] = ("atomic_write",)
    #: The one module allowed to define metric-name literals.
    metric_names_module: str = "src/repro/serving/metric_names.py"
    #: The one module allowed to define ``bench.*`` benchmark-id literals.
    bench_registry_module: str = "src/repro/bench/registry.py"
    #: The one module allowed to define prompt-token literals.
    prompt_templates_module: str = "src/repro/prompts/templates.py"
    #: Prompt tokens whose literal occurrence elsewhere is drift (RL007).
    prompt_tokens: tuple[str, ...] = (
        "[ALM]", "[KPI]", "[ATTR]", "[ENT]", "[REL]", "[DOC]", "[LOC]",
        "[NUM]", "[SIG]", "[CFG]")
    #: Modules where a bare ``"|"`` literal counts as prompt-separator
    #: drift (prompt-construction layers only; ASCII art elsewhere is fine).
    separator_scope: tuple[str, ...] = (
        "src/repro/corpus/", "src/repro/models/", "src/repro/tasks/",
        "src/repro/prompts/")
    #: ``np.random.<fn>`` attributes that are *not* global-state RNG use.
    rng_allowed: tuple[str, ...] = (
        "default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64",
        "Philox", "MT19937")
    #: ``random.<fn>`` (stdlib) attributes that are instance constructors,
    #: not module-global state.
    stdlib_rng_allowed: tuple[str, ...] = ("Random", "SystemRandom")
    #: Calls that hand back a resource needing an explicit lifecycle
    #: (RL011).  Matched against alias-resolved dotted call targets by
    #: suffix, so ``sock = socket.socket(...)``, ``shm =
    #: shared_memory.SharedMemory(...)``, and ``block = SharedArray(...)``
    #: all register however they were imported.
    resource_openers: tuple[str, ...] = (
        "open", "io.open", "socket.socket", "socket.create_connection",
        "socket.accept", "mmap.mmap", "numpy.memmap", "numpy.load",
        "shared_memory.SharedMemory", "multiprocessing.shared_memory."
        "SharedMemory", "SharedArray", "tempfile.NamedTemporaryFile",
        "gzip.open", "tarfile.open", "zipfile.ZipFile")
    #: RL009/RL010/RL011 (the interprocedural flow rules) apply under
    #: these prefixes — the production stack, where a liveness bug is an
    #: outage.  RL008 (lock-order) is global: an inversion is a bug
    #: wherever the locks live.
    flow_scope: tuple[str, ...] = (
        "src/repro/serving/", "src/repro/training/", "src/repro/service/",
        "src/repro/netserve/", "src/repro/loadgen/", "src/repro/index/",
        "src/repro/tasks/")
    #: Per-prefix rule exemptions: (path prefix, exempted rule codes).
    #: Tests and benchmarks run a test-appropriate subset — seeded
    #: fixtures make global-RNG use fine (RL005), fixture threads are
    #: joined by the harness (RL003), scratch handles live inside
    #: tmp_path fixtures (RL011), literal metric names / prompt tokens
    #: are *deliberate* in assertions — pinning the string is how a test
    #: catches drift in the source of truth (RL007) — and failure-path
    #: probes swallow on purpose (RL006, tests only).  Tools keep
    #: everything except RL005 (CLI entry points seed their own
    #: generators).
    path_rule_exemptions: tuple[tuple[str, tuple[str, ...]], ...] = (
        ("tests/", ("RL005", "RL003", "RL011", "RL009", "RL010",
                    "RL007", "RL006")),
        ("benchmarks/", ("RL005", "RL003", "RL011", "RL009", "RL010",
                         "RL007")),
        ("tools/", ("RL005",)),
    )

    def exempt(self, rel: str, code: str) -> bool:
        """Whether ``code`` is switched off for files under ``rel``."""
        return any(rel.startswith(prefix) and code in codes
                   for prefix, codes in self.path_rule_exemptions)


@dataclass
class ModuleContext:
    """Everything a rule needs to check one parsed module, from its one
    full-tree walk: the module rules read ``nodes`` and the summary
    extractor the parent map."""

    rel: str                      # repo-relative posix path
    source: str
    tree: ast.AST
    config: LintConfig
    lines: list[str] = field(default_factory=list)
    nodes: list[ast.AST] = field(init=False)  # in ast.walk order
    import_aliases: dict[str, str] = field(init=False)  # alias -> dotted
    _parents: dict[ast.AST, ast.AST] = field(default_factory=dict)
    _qualnames: dict[ast.AST, str] = field(default_factory=dict)

    def __post_init__(self):
        self.lines = self.source.splitlines()
        self.nodes = []
        self.import_aliases = {}
        for parent in ast.walk(self.tree):
            self.nodes.append(parent)
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
            if isinstance(parent, ast.Import):
                for name in parent.names:
                    self.import_aliases[
                        name.asname or name.name.split(".")[0]] = name.name
            elif isinstance(parent, ast.ImportFrom) and parent.module:
                for name in parent.names:
                    self.import_aliases[name.asname or name.name] = \
                        f"{parent.module}.{name.name}"

    # -- structure helpers --------------------------------------------
    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def qualname(self, node: ast.AST) -> str:
        """Dotted enclosing ``Class.method`` chain (cached per node)."""
        if node in self._qualnames:
            return self._qualnames[node]
        parts: list[str] = []
        cursor: ast.AST | None = node
        while cursor is not None:
            if isinstance(cursor, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                parts.append(cursor.name)
            cursor = self._parents.get(cursor)
        qualname = ".".join(reversed(parts)) or "<module>"
        self._qualnames[node] = qualname
        return qualname

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def in_scope(self, prefixes: Iterable[str]) -> bool:
        return any(self.rel.startswith(prefix) for prefix in prefixes)

    def is_docstring(self, node: ast.Constant) -> bool:
        """Whether this string constant is a bare expression statement
        (docstrings and block comments-as-strings — never executed as
        data, so exempt from literal-drift rules)."""
        parent = self._parents.get(node)
        return isinstance(parent, ast.Expr)

    # -- finding construction -----------------------------------------
    def finding(self, code: str, node: ast.AST, message: str) -> Finding:
        lineno = getattr(node, "lineno", 1)
        return Finding(rule=code, path=self.rel, line=lineno,
                       col=getattr(node, "col_offset", 0),
                       message=message, line_text=self.line_text(lineno),
                       qualname=self.qualname(node))


# ---------------------------------------------------------------------
# Matching helpers shared by the module and project rules
# ---------------------------------------------------------------------
_LOCKY_RE = re.compile(r"(lock|cond|mutex|sem)", re.IGNORECASE)
_THREADY_RE = re.compile(r"(thread|worker|proc|pool)", re.IGNORECASE)

#: Method names whose call can block for unbounded time (RL001 inside a
#: lock; the wait-shaped subsets again in RL002 and the project layer).
_BLOCKING_ATTRS = frozenset({
    "encode", "encode_names", "encode_texts", "embed", "result", "wait",
    "wait_for", "acquire", "join", "get", "flush", "recv", "sleep",
})


def _attr_chain(node: ast.AST) -> list[str] | None:
    """``np.random.seed`` -> ["np", "random", "seed"]; None if not a
    plain name/attribute chain."""
    parts: list[str] = []
    cursor = node
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
    if isinstance(cursor, ast.Name):
        parts.append(cursor.id)
        return list(reversed(parts))
    return None


# ---------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------
class _Suppression(NamedTuple):
    line: int
    codes: list[str]              # sorted
    reason: str


def _parse_suppressions(source: str) -> tuple[list[_Suppression],
                                              list[tuple[int, str]]]:
    """Extract ``# repro-lint: allow[...]`` comments via ``tokenize``.

    A trailing comment suppresses its own line; a standalone comment line
    suppresses the line below it (and only that line — suppressions never
    bleed onto neighbouring findings).

    Returns (suppressions, problems) where problems are (line, message)
    pairs for malformed suppressions (missing reason / empty code list).
    """
    suppressions: list[_Suppression] = []
    problems: list[tuple[int, str]] = []
    if "repro-lint" not in source:
        return suppressions, problems  # no comment can name the tool
    lines = source.splitlines()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [t for t in tokens if t.type == tokenize.COMMENT]
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return suppressions, problems
    for token in comments:
        match = _SUPPRESSION_RE.search(token.string)
        if match is None:
            if "repro-lint" in token.string:
                problems.append(
                    (token.start[0],
                     "malformed repro-lint comment (expected "
                     "'# repro-lint: allow[RL00x] reason')"))
            continue
        codes = sorted({c.strip() for c in match.group("codes").split(",")
                        if c.strip()})
        reason = match.group("reason").strip()
        if not codes:
            problems.append((token.start[0],
                             "suppression lists no rule codes"))
            continue
        if not reason:
            problems.append(
                (token.start[0],
                 "suppression without a reason — say why the rule does "
                 "not apply here"))
            continue
        row, col = token.start
        prefix = lines[row - 1][:col] if row <= len(lines) else ""
        target = row + 1 if not prefix.strip() else row
        suppressions.append(_Suppression(line=target, codes=codes,
                                         reason=reason))
    return suppressions, problems


def _apply_suppressions(findings: list[Finding],
                        suppressions: list[_Suppression]) -> list[Finding]:
    """Drop findings whose line a suppression targets."""
    if not suppressions:
        return findings
    by_line: dict[int, set[str]] = {}
    for suppression in suppressions:
        by_line.setdefault(suppression.line, set()).update(suppression.codes)
    return [finding for finding in findings
            if finding.rule not in by_line.get(finding.line, set())]


# ---------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------
def _validate_select(select: Iterable[str] | None) -> set[str] | None:
    """Resolve ``select`` to a code set; unknown codes are a usage error."""
    if select is None:
        return None
    selected = set(select)
    unknown = selected - set(RULES) - {FRAMEWORK_CODE}
    if unknown:
        raise ValueError(f"unknown rule code(s): {sorted(unknown)}")
    return selected


def _module_findings(context: ModuleContext,
                     selected: set[str] | None) -> list[Finding]:
    """Run the selected module-scope rules over one parsed module."""
    findings: list[Finding] = []
    for meta in RULES.values():
        if meta.scope != "module":
            continue
        if selected is not None and meta.code not in selected:
            continue
        findings.extend(meta.check(context))
    return findings


def _framework_findings(problems: list[tuple[int, str]], rel: str,
                        line_text, selected: set[str] | None
                        ) -> list[Finding]:
    if selected is not None and FRAMEWORK_CODE not in selected:
        return []
    return [Finding(rule=FRAMEWORK_CODE, path=rel, line=line, col=0,
                    message=message, line_text=line_text(line),
                    qualname="<module>")
            for line, message in problems]


def _apply_exemptions(findings: list[Finding],
                      config: LintConfig) -> list[Finding]:
    return [f for f in findings if not config.exempt(f.path, f.rule)]


def _load(sources: dict[str, str], config: LintConfig,
          selected: set[str] | None, cache):
    """The per-file step of every run, ``--graph`` included: replay a
    file's cache entry, or parse, walk, check and summarise it once.
    Returns the project built from every summary, the module findings
    and each file's suppressions."""
    from repro.lint import project

    summaries = {}
    findings: list[Finding] = []
    suppressions: dict[str, list[_Suppression]] = {}
    for rel in sorted(sources):
        source = sources[rel]
        sha = project.source_sha(source)
        entry = cache.lookup(rel, sha) if cache is not None else None
        if entry is None:
            try:
                tree = ast.parse(source)
            except SyntaxError as error:
                findings.append(Finding(
                    rule=FRAMEWORK_CODE, path=rel, line=error.lineno or 1,
                    col=error.offset or 0,
                    message=f"syntax error: {error.msg}"))
                continue
            context = ModuleContext(rel=rel, source=source, tree=tree,
                                    config=config)
            module_findings = _module_findings(context, selected)
            file_suppressions, problems = _parse_suppressions(source)
            module_findings = _apply_suppressions(module_findings,
                                                  file_suppressions)
            module_findings.extend(_framework_findings(
                problems, rel, context.line_text, selected))
            entry = project.CacheEntry(
                sha=sha, summary=project.summarise_module(context),
                findings=module_findings, suppressions=file_suppressions)
            if cache is not None:
                cache.store(rel, entry)
        summaries[rel] = entry.summary
        findings.extend(entry.findings)
        suppressions[rel] = entry.suppressions
    if cache is not None:
        cache.prune(set(sources))
    return (project.ProjectContext(summaries, sources, config), findings,
            suppressions)


def analyze_sources(sources: dict[str, str],
                    config: LintConfig | None = None,
                    select: Iterable[str] | None = None,
                    cache=None) -> list[Finding]:
    """Lint a set of in-memory modules as one program.

    ``sources`` maps repo-relative posix paths to source text.  The
    module-scope rules run per file; the project-scope rules (RL008+) run
    once over the :class:`~repro.lint.project.ProjectContext` built from
    every parseable file.  ``cache`` is an optional
    :class:`~repro.lint.project.SummaryCache`: files whose SHA it knows
    replay their summary and module findings without re-parsing.
    """
    config = config or LintConfig()
    selected = _validate_select(select)
    project, findings, suppressions = _load(sources, config, selected,
                                            cache)
    project_findings: list[Finding] = []
    for meta in RULES.values():
        if meta.scope == "project" and (selected is None
                                        or meta.code in selected):
            project_findings.extend(meta.check(project))
    by_rel: dict[str, list[Finding]] = {}
    for finding in project_findings:
        by_rel.setdefault(finding.path, []).append(finding)
    for rel, batch in by_rel.items():
        findings.extend(_apply_suppressions(batch,
                                            suppressions.get(rel, [])))
    return sorted(_apply_exemptions(findings, config), key=Finding.sort_key)


def analyze_source(source: str, rel: str,
                   config: LintConfig | None = None,
                   select: Iterable[str] | None = None) -> list[Finding]:
    """Run the (selected) rules over one module's source text.

    ``rel`` is the repo-relative posix path used for scoping and
    fingerprints; it does not need to exist on disk, which is what makes
    fixture-based rule tests cheap.  Project-scope rules run too, over a
    one-module program — intra-module call chains still resolve.
    """
    return analyze_sources({rel: source}, config=config, select=select)


def iter_python_files(paths: Iterable[str | Path],
                      root: Path) -> Iterator[Path]:
    """Yield ``.py`` files under ``paths`` (files or directories), sorted,
    each once and resolved."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield resolved


def _read_sources(paths: Iterable[str | Path], root: str | Path
                  ) -> tuple[dict[str, str], list[Finding]]:
    """Source text of every Python file under ``paths``, keyed by its
    path relative to ``root``, plus an RL000 finding per unreadable file."""
    root = Path(root).resolve()
    sources: dict[str, str] = {}
    findings: list[Finding] = []
    for path in iter_python_files(paths, root):
        try:
            rel = path.relative_to(root).as_posix()
        except ValueError:
            rel = path.as_posix()
        try:
            sources[rel] = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            findings.append(Finding(
                rule=FRAMEWORK_CODE, path=rel, line=1, col=0,
                message=f"unreadable file: {error}"))
    return sources, findings


def analyze_paths(paths: Iterable[str | Path], root: str | Path,
                  config: LintConfig | None = None,
                  select: Iterable[str] | None = None,
                  cache=None) -> list[Finding]:
    """Lint every Python file under ``paths``; findings sorted by location.

    ``root`` is the repository root: file paths are recorded relative to
    it so fingerprints are stable across checkouts.  ``cache`` is an
    optional :class:`~repro.lint.project.SummaryCache` (the caller saves
    it after the run).
    """
    _validate_select(select)  # fail fast even when no file matches
    sources, findings = _read_sources(paths, root)
    findings.extend(analyze_sources(sources, config=config, select=select,
                                    cache=cache))
    return sorted(findings, key=Finding.sort_key)


def graph_paths(paths: Iterable[str | Path], root: str | Path,
                config: LintConfig | None = None,
                select: Iterable[str] | None = None,
                cache=None) -> dict:
    """The call and lock graphs RL008-RL011 reason over (``repro lint
    --graph``), for files read and summarised as :func:`analyze_paths`
    does it."""
    config = config or LintConfig()
    selected = _validate_select(select)
    sources, _ = _read_sources(paths, root)
    project, _, _ = _load(sources, config, selected, cache)
    return project.graph_dump()


__all__ = [
    "FRAMEWORK_CODE",
    "Finding",
    "LintConfig",
    "ModuleContext",
    "RULES",
    "Rule",
    "SCOPES",
    "analyze_paths",
    "analyze_source",
    "analyze_sources",
    "graph_paths",
    "iter_python_files",
    "rule",
]
