"""Seeded input generators for the perfbench workloads, with the answers
each generator knows by construction.

Every generator takes a seed and writes the files the program sees; the
returned answer object is the oracle the workload checks the program's
verdicts against. No answer is ever taken from `susc` itself.

  b11      the B11 repository of bench/daemon_bench.py (imported, not
           copied), with a seeded family pairing and declaration order;
  hotel    a seeded scale-up of the paper's Fig. 1-2 hotel example;
  monitor  a policy file plus a label stream with injected violations;
  load     the open-loop request schedule b11-cold's traced run plays
           against a live susd.
"""

import os
import random
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
from daemon_bench import generate_b9  # noqa: E402

_FAMILY = re.compile(r"\bf(\d+)(?=[gqadx])")


class Answer:
    """What a generated repository must verify to.

    valid:         client name -> set of valid plan strings, printed the
                   way the report prints them ("{1 -> br, 100 -> h3}");
    candidates:    client name -> number of compliant candidate plans;
    lint_findings: number of lint findings; lint exits 1 iff non-zero.
    """

    def __init__(self, valid, candidates, lint_findings):
        self.valid = valid
        self.candidates = candidates
        self.lint_findings = lint_findings

    @property
    def lint_exit(self):
        return 1 if self.lint_findings else 0

    def write(self, path):
        """The expect file the in-process driver checks its replay with."""
        with open(path, "w") as f:
            f.write("lint %d\n" % self.lint_findings)
            for client in sorted(self.valid):
                f.write("client %s %d\n" % (client, self.candidates[client]))
                for plan in sorted(self.valid[client]):
                    f.write("plan %s\n" % plan)


def gen_b11(path, seed, families=1000, per_family=10, clients=64):
    """B11 with a seeded family permutation and declaration order.

    Client c requests family perm[2c] at request 2c+1 and perm[2c+1] at
    2c+2; only each family's `g` service answers on the live channel, so
    the only valid plan is {2c+1 -> f<perm[2c]>g, 2c+2 -> f<perm[2c+1]>g}.
    Every service is an unguarded `mu h . ... . h`: one
    nonterminating-recursion finding each.
    """
    rng = random.Random(seed)
    generate_b9(path, families, per_family, clients)
    with open(path) as f:
        lines = f.read().splitlines()
    header, decls = lines[:1], lines[1:]
    perm = list(range(families))
    rng.shuffle(perm)
    decls = [_FAMILY.sub(lambda m: "f%d" % perm[int(m.group(1))], d)
             for d in decls]
    rng.shuffle(decls)
    with open(path, "w") as f:
        f.write("\n".join(header + decls) + "\n")
    valid, candidates = {}, {}
    for c in range(clients):
        a, b = perm[(2 * c) % families], perm[(2 * c + 1) % families]
        valid["c%d" % c] = {"{%d -> f%dg, %d -> f%dg}" % (2 * c + 1, a,
                                                          2 * c + 2, b)}
        candidates["c%d" % c] = 1
    return Answer(valid, candidates, families * per_family)


HOTEL_POLICY = """\
policy phi(bl: set, p: int, t: int) {
  start q1;
  offending q6;
  q1 -> q2 on sgn(x) when x not in bl;
  q1 -> q6 on sgn(x) when x in bl;
  q2 -> q3 on p(y) when y <= p;
  q2 -> q4 on p(y) when y > p;
  q4 -> q5 on ta(z) when z >= t;
  q4 -> q6 on ta(z) when z < t;
  q3 -> q3 on *;
  q5 -> q5 on *;
  q6 -> q6 on *;
}
"""

BROKER_REQUEST = 100


def gen_hotel(path, seed, hotels=200, clients=64):
    """Fig. 1-2 scaled up: one broker `br` whose nested request goes to one
    of `hotels` hotels, and `clients` clients with their own phi(bl,p,t).

    A plan {K -> br, 100 -> hJ} is VALID exactly when hJ never sends Del
    (otherwise the broker's request is not compliant), hJ is not in bl,
    and hJ's price is <= p or its rating is >= t (Fig. 1's automaton).
    About a quarter of the hotels are written as lambda programs.
    """
    rng = random.Random(seed)
    # Which hotels send Del or are lambda programs is seeded; how many is
    # not, so that every seed asks for about the same amount of work.
    dels = set(rng.sample(range(hotels), hotels // 5))
    lambdas = set(rng.sample(range(hotels), hotels // 4))
    hs = []
    for j in range(hotels):
        hs.append({"name": "h%d" % j,
                   "price": rng.randint(30, 120),
                   "rating": rng.randint(50, 100),
                   "del": j in dels,
                   "lambda": j in lambdas})
    decls = ["service br { Req? . (open %d { IdC! . (Bok? + UnA?) }; "
             "(CoBo! . Pay? <+> NoAv!)) }" % BROKER_REQUEST]
    for h in hs:
        events = "%%sgn(%s); %%p(%d); %%ta(%d);" % (h["name"], h["price"],
                                                   h["rating"])
        if h["lambda"]:
            branches = "Bok -> unit, UnA -> unit"
            if h["del"]:
                branches += ", Del -> unit"
            decls.append("program service %s { %s rcv IdC; select { %s } }"
                         % (h["name"], events, branches))
        else:
            answers = "Bok! <+> UnA!" + (" <+> Del!" if h["del"] else "")
            decls.append("service %s { %s IdC? . (%s) }"
                         % (h["name"], events, answers))
    valid, candidates = {}, {}
    for k in range(1, clients + 1):
        bl = sorted(rng.sample(range(hotels), hotels // 20))
        p, t = rng.randint(40, 110), rng.randint(60, 100)
        blset = "{%s}" % ",".join("h%d" % j for j in bl)
        name = "c%d" % k
        decls.append("client %s { open %d @ phi(%s,%d,%d) "
                     "{ Req! . (CoBo? . Pay! + NoAv?) } }"
                     % (name, k, blset, p, t))
        banned = set(bl)
        valid[name] = {"{%d -> br, %d -> %s}" % (k, BROKER_REQUEST, h["name"])
                       for j, h in enumerate(hs)
                       if not h["del"] and j not in banned
                       and (h["price"] <= p or h["rating"] >= t)}
        candidates[name] = sum(1 for h in hs if not h["del"])
    rng.shuffle(decls)
    with open(path, "w") as f:
        f.write("# hotel-cold: %d hotels, %d clients, seed %d.\n"
                % (hotels, clients, seed))
        f.write(HOTEL_POLICY)
        f.write("\n".join(decls) + "\n")
    return Answer(valid, candidates, 0)


# Monitor stream ------------------------------------------------------------

MONITOR_SHAPES = 16      # policy shapes m0..m15
MONITOR_PARAMS = (3, 4, 5, 6)
MONITOR_EVENTS = 8       # plain events e0..e7, values 1 and 2
VIOLATION_VALUE = 9      # v<i>(9) offends every instance of shape i


def _monitor_policies():
    """Shape i is a 4-state churn cycle over three plain events; the only
    edges into its offending state q3 fire on v<i>(x) with x >= t, from
    every other state, so a v<i>(9) offends whatever state the run is in
    and plain events never do. The shapes are fixed: the seed picks the
    sessions and the stream, so the work per label does not depend on it."""
    out = []
    for i in range(MONITOR_SHAPES):
        a, b, c = (i % MONITOR_EVENTS, (i + 1) % MONITOR_EVENTS,
                   (i + 3) % MONITOR_EVENTS)
        out.append(
            "policy m%d(t: int) {\n"
            "  start q0;\n"
            "  offending q3;\n"
            "  q0 -> q1 on e%d(x) when x <= t;\n"
            "  q1 -> q2 on e%d(x) when x <= 2;\n"
            "  q0 -> q2 on e%d(x);\n"
            "  q2 -> q0 on *;\n"
            "  q0 -> q3 on v%d(x) when x >= t;\n"
            "  q1 -> q3 on v%d(x) when x >= t;\n"
            "  q2 -> q3 on v%d(x) when x >= t;\n"
            "  q3 -> q3 on *;\n"
            "}\n" % (i, a, b, c, i, i, i))
    return "".join(out)


class MonitorAnswer:
    def __init__(self, blocked, items):
        self.blocked = blocked  # number of injected violations per pass
        self.items = items      # labels ingested per pass


def gen_monitor(sus_path, stream_path, seed, narrow_sessions=64,
                wide_sessions=16, narrow_sets=4, batch=4096,
                narrow_batches=32):
    """Policy file plus one pass of a label stream.

    Narrow sessions frame 8 policy instances (one of `narrow_sets` seeded
    sets, so that many fusions); wide sessions frame all 64 instances,
    past the fused monitor's width. A quarter of the sessions get one
    v<i>(9) for a shape i they frame, as their last label of the pass;
    the stream marks those items, and only those, as blocked.
    """
    rng = random.Random(seed)
    with open(sus_path, "w") as f:
        f.write("# monitor-stream policies, seed %d.\n" % seed)
        f.write(_monitor_policies())
    universe = [("e%d" % e, v) for e in range(MONITOR_EVENTS) for v in (1, 2)]
    universe += [("v%d" % i, VIOLATION_VALUE) for i in range(MONITOR_SHAPES)]
    vindex = {i: MONITOR_EVENTS * 2 + i for i in range(MONITOR_SHAPES)}
    all_refs = [(i, t) for i in range(MONITOR_SHAPES) for t in MONITOR_PARAMS]
    sets = [rng.sample(all_refs, 8) for _ in range(narrow_sets)]
    sessions = [("n", sets[s % narrow_sets]) for s in range(narrow_sessions)]
    sessions += [("w", list(all_refs)) for _ in range(wide_sessions)]

    lines, blocked, items = [], 0, 0
    for kind, nbatches in (("n", narrow_batches), ("w", 2)):
        ids = [s for s, (k, _) in enumerate(sessions) if k == kind]
        total = nbatches * batch
        # Violating sessions end at a seeded position; the rest run on.
        ends = {}
        for s in rng.sample(ids, max(1, len(ids) // 4)):
            ends.setdefault(rng.randrange(total // 4, total - 64), []).append(s)
        live = list(ids)
        stream = []
        for pos in range(total):
            done = ends.pop(pos, None)
            if done:
                s = done[0]
                shape = rng.choice(sessions[s][1])[0]
                stream.append("%d:%d!" % (s, vindex[shape]))
                live.remove(s)
                blocked += 1
                if done[1:]:  # Same end slot: the others end one later.
                    ends[pos + 1] = done[1:]
                continue
            s = live[rng.randrange(len(live))]
            stream.append("%d:%d" % (s, rng.randrange(MONITOR_EVENTS * 2)))
        for b in range(nbatches):
            lines.append("batch %s %s" % (
                kind, " ".join(stream[b * batch:(b + 1) * batch])))
        items += total
    with open(stream_path, "w") as f:
        f.write("universe %s\n" % " ".join("%s:%d" % e for e in universe))
        for kind, refs in sessions:
            f.write("session %s %s\n" % (
                kind, " ".join("m%d:%d" % r for r in refs)))
        f.write("\n".join(lines) + "\n")
    return MonitorAnswer(blocked, items)


# Request load --------------------------------------------------------------

VERIFY_RATE, CHURN_RATE, PING_RATE = 400.0, 2.0, 60.0


def gen_load(path, seed, answer, seconds, rates=None):
    """Seeded open-loop schedule of verify/churn/ping requests.

    Reads and health checks arrive as Poisson streams. Writes arrive once
    per period at a seeded point of the middle half of it: Poisson writes
    bunch up, and the verify/ping tails then measure how often two churns
    happened to queue back to back rather than what one churn costs.

    Each line is `due_us verb k=v,... expected`: a verify must report
    exactly the one expected VALID plan, a churn must leave every client
    with `valid plans after churn: 1`, and a ping must answer `pong`.
    """
    rng = random.Random(seed)
    verify_rate, churn_rate, ping_rate = rates or (VERIFY_RATE, CHURN_RATE,
                                                   PING_RATE)
    clients = sorted(answer.valid)
    events = []
    for verb, rate in (("verify", verify_rate), ("ping", ping_rate)):
        t = rng.expovariate(rate)
        while t < seconds:
            events.append((t, verb))
            t += rng.expovariate(rate)
    period = 1.0 / churn_rate
    for k in range(int(seconds * churn_rate)):
        events.append(((k + rng.uniform(0.25, 0.75)) * period, "churn"))
    events.sort()
    with open(path, "w") as f:
        f.write("clients %d\n" % len(clients))
        for t, verb in events:
            due = int(t * 1e6)
            if verb == "verify":
                c = rng.choice(clients)
                (plan,) = answer.valid[c]
                f.write("%d verify client=%s %s\n" % (due, c, plan))
            elif verb == "churn":
                f.write("%d churn rounds=1,seed=%d -\n"
                        % (due, rng.randrange(1, 1 << 30)))
            else:
                f.write("%d ping - -\n" % due)
    return len(events)


# Oracles over the program's output -----------------------------------------

_CLIENT = re.compile(r"^== client (\S+) ==$")
_PLAN = re.compile(r"^  plan (\{.*\}): (VALID|invalid|Inconclusive)")
_CANDIDATES = re.compile(r"^candidate plans: (\d+) ")
_VALID_COUNT = re.compile(r"^valid plans: (\d+)$")
_FINDINGS = re.compile(r": (\d+) finding\(s\)$")


def verify_mismatches(text, answer):
    """Clients whose enumerated VALID plan set differs from the answer, in
    a `susc FILE` / `susd --warm` report. Compares verdict sets, not
    bytes: `bindings tried` legitimately differs between scan and index."""
    valid, client = {}, None
    for line in text.splitlines():
        m = _CLIENT.match(line)
        if m:
            client = m.group(1)
            valid[client] = set()
            continue
        m = _PLAN.match(line)
        if m and client is not None and m.group(2) == "VALID":
            valid[client].add(m.group(1))
    return sorted(c for c in set(valid) | set(answer.valid)
                  if valid.get(c) != answer.valid.get(c))


def plan_mismatches(text, answer):
    """Clients whose `susc plan` candidate or valid-plan counts differ."""
    seen, client = {}, None
    for line in text.splitlines():
        m = _CLIENT.match(line)
        if m:
            client = m.group(1)
            seen[client] = [None, None]
            continue
        if client is None:
            continue
        m = _CANDIDATES.match(line)
        if m:
            seen[client][0] = int(m.group(1))
        m = _VALID_COUNT.match(line)
        if m:
            seen[client][1] = int(m.group(1))
    return sorted(c for c in set(seen) | set(answer.valid)
                  if seen.get(c) != [answer.candidates.get(c),
                                     len(answer.valid.get(c, ()))])


def lint_ok(text, code, answer):
    """`susc lint` reports the expected finding count and exit code."""
    lines = text.splitlines()
    m = _FINDINGS.search(lines[-1]) if lines else None
    return (code == answer.lint_exit and m is not None
            and int(m.group(1)) == answer.lint_findings)
