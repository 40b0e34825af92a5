"""Sequential-consistency reference for the benchmark's explore workloads.

A small interpreter for the straight-line programs that
litmus/ScaleWorkload generates, written against the psopt text syntax
(docs/LANGUAGE.md), plus a parser for `psopt explore` output.

Every SC execution of a program is also a PS2.1 execution, so the done
traces that `psopt explore` prints must cover every SC outcome. The
interpreter enumerates SC interleavings of the accesses to shared
locations (those one thread writes and another accesses); every other
statement is thread-local under SC and runs eagerly between them.
"""

import re

_TOKEN = re.compile(r"\s*(?:(-?\d+)|([A-Za-z_][A-Za-z0-9_]*)|(\S))")


class ModelError(Exception):
    pass


def _parse_expr(text):
    """Compiles an expression over registers, integers, + - * and
    parentheses into a function of a register dict."""
    toks = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ModelError("bad expression: " + text)
        pos = m.end()
        if m.group(1) is not None:
            toks.append(("int", int(m.group(1))))
        elif m.group(2) is not None:
            toks.append(("reg", m.group(2)))
        else:
            toks.append(("op", m.group(3)))
    toks.append(("end", None))
    i = 0

    def peek():
        return toks[i]

    def take():
        nonlocal i
        i += 1
        return toks[i - 1]

    def atom():
        kind, val = take()
        if kind == "int":
            return lambda regs, v=val: v
        if kind == "reg":
            return lambda regs, r=val: regs.get(r, 0)
        if (kind, val) == ("op", "("):
            e = additive()
            if take() != ("op", ")"):
                raise ModelError("unbalanced parentheses: " + text)
            return e
        if (kind, val) == ("op", "-"):
            e = atom()
            return lambda regs: -e(regs)
        raise ModelError("bad expression: " + text)

    def multiplicative():
        e = atom()
        while peek() == ("op", "*"):
            take()
            lhs, rhs = e, atom()
            e = lambda regs, a=lhs, b=rhs: a(regs) * b(regs)
        return e

    def additive():
        e = multiplicative()
        while peek() in (("op", "+"), ("op", "-")):
            op = take()[1]
            lhs, rhs = e, multiplicative()
            if op == "+":
                e = lambda regs, a=lhs, b=rhs: a(regs) + b(regs)
            else:
                e = lambda regs, a=lhs, b=rhs: a(regs) - b(regs)
        return e

    e = additive()
    if peek()[0] != "end":
        raise ModelError("trailing tokens in expression: " + text)
    return e


_ACCESS = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\.[a-z]+$")


def parse_program(text):
    """Returns (variables, threads): threads is a list of statement lists,
    one per `thread` declaration, in declaration order. A statement is
    ('assign', reg, expr) | ('load', reg, var) | ('store', var, expr) |
    ('print', expr)."""
    variables = set()
    funcs = {}
    threads = []
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("var "):
            variables.add(line[4:].rstrip(";").split()[0])
        elif line.startswith("func "):
            current = funcs.setdefault(line.split()[1], [])
        elif line == "}":
            current = None
        elif line.startswith("thread "):
            threads.append(line.split()[1].rstrip(";"))
        elif line.startswith("block "):
            if line != "block 0:":
                raise ModelError("only single-block threads are modelled")
        elif current is not None:
            current.append(_parse_statement(line.rstrip(";"), variables))
        else:
            raise ModelError("unexpected line: " + line)
    try:
        return variables, [funcs[name] for name in threads]
    except KeyError as missing:
        raise ModelError("thread without a function: %s" % missing)


def _parse_statement(stmt, variables):
    if stmt in ("skip", "ret") or stmt.startswith("fence."):
        return None  # no effect under SC
    if stmt.startswith("print(") and stmt.endswith(")"):
        return ("print", _parse_expr(stmt[6:-1]))
    if ":=" in stmt:
        lhs, rhs = (s.strip() for s in stmt.split(":=", 1))
        store = _ACCESS.match(lhs)
        if store and store.group(1) in variables:
            return ("store", store.group(1), _parse_expr(rhs))
        load = _ACCESS.match(rhs)
        if load and load.group(1) in variables:
            return ("load", lhs, load.group(1))
        return ("assign", lhs, _parse_expr(rhs))
    raise ModelError("statement outside the modelled subset: " + stmt)


def sc_outcomes(text):
    """The set of SC outcomes of the program: tuples holding, per thread in
    declaration order, the tuple of values that thread prints."""
    variables, threads = parse_program(text)
    bodies = [[s for s in body if s is not None] for body in threads]
    # A location is shared when one thread writes it and another accesses
    # it; a location nobody writes (the filler's `ro`) always reads 0.
    accessors, writers = {}, {}
    for t, body in enumerate(bodies):
        for s in body:
            if s[0] in ("load", "store"):
                var = s[2] if s[0] == "load" else s[1]
                accessors.setdefault(var, set()).add(t)
                if s[0] == "store":
                    writers.setdefault(var, set()).add(t)
    shared = {v for v, ws in writers.items() if accessors[v] - ws or len(ws) > 1}

    def is_shared(s):
        return (s[0] == "load" and s[2] in shared) or (
            s[0] == "store" and s[1] in shared)

    # Thread-local memory holds every other location. Every location
    # starts at 0.
    local_cache = {}

    def run_local(t, pc, regs, local_mem, prints):
        """Runs thread t from pc up to its next shared access."""
        key = (t, pc, regs, local_mem, prints)
        if key in local_cache:
            return local_cache[key]
        r = dict(regs)
        mem = dict(local_mem)
        out = list(prints)
        body = bodies[t]
        while pc < len(body) and not is_shared(body[pc]):
            s = body[pc]
            if s[0] == "assign":
                r[s[1]] = s[2](r)
            elif s[0] == "load":
                r[s[1]] = mem.get(s[2], 0)
            elif s[0] == "store":
                mem[s[1]] = s[2](r)
            else:
                out.append(s[1](r))
            pc += 1
        result = (pc, tuple(sorted(r.items())), tuple(sorted(mem.items())),
                  tuple(out))
        local_cache[key] = result
        return result

    start = tuple(run_local(t, 0, (), (), ()) for t in range(len(bodies)))
    outcomes = set()
    seen = set()
    stack = [(start, ())]
    while stack:
        state, shared_mem = stack.pop()
        if (state, shared_mem) in seen:
            continue
        seen.add((state, shared_mem))
        moved = False
        for t, (pc, regs, local_mem, prints) in enumerate(state):
            body = bodies[t]
            if pc >= len(body):
                continue
            moved = True
            s = body[pc]
            r = dict(regs)
            mem = dict(shared_mem)
            if s[0] == "load":
                r[s[1]] = mem.get(s[2], 0)
            else:
                mem[s[1]] = s[2](r)
            nxt = list(state)
            nxt[t] = run_local(t, pc + 1, tuple(sorted(r.items())), local_mem,
                               prints)
            stack.append((tuple(nxt), tuple(sorted(mem.items()))))
        if not moved:
            outcomes.add(tuple(th[3] for th in state))
    return outcomes


def parse_explore_output(text):
    """Parses `psopt explore` stdout into a dict: done/abort/blocked trace
    sets, the exhaustive verdict and the node counters."""
    result = {"done": set(), "abort": set(), "blocked": set(),
              "exhaustive": False, "counters": {}}
    for line in text.splitlines():
        m = re.match(r"^\[([-\d, ]*)\] (done|abort|blocked)$", line)
        if m:
            body = m.group(1).strip()
            trace = tuple(int(v) for v in body.split(",")) if body else ()
            result[m.group(2)].add(trace)
        elif line == "(exhaustive)":
            result["exhaustive"] = True
        elif line.startswith("nodes="):
            for field in line.split():
                key, value = field.split("=")
                result["counters"][key] = int(value)
    return result


def project_by_thread(trace, nthreads):
    """Splits a done trace whose values have the shape 10*v+T into the
    per-thread outcome tuple sc_outcomes uses; None when the trace does not
    have that shape (one print per thread, v in {0, 1})."""
    if len(trace) != nthreads:
        return None
    per_thread = [None] * nthreads
    for value in trace:
        v, t = divmod(value, 10)
        if v not in (0, 1) or t >= nthreads or per_thread[t] is not None:
            return None
        per_thread[t] = (value,)
    return tuple(per_thread)
