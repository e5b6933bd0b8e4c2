"""Parametric service-specification generators.

The paper's evaluation artifacts (the worked examples, the message
complexity analysis of Section 4.3, the PG case studies of Section 6)
are all *service specifications*; this module builds families of them
with tunable size and place count so tests and perfbench can sweep
parameters.
All generators return conforming specifications (R1-R3 hold by
construction) unless stated otherwise.
"""

from __future__ import annotations

from typing import List

from repro.lotos.parser import parse
from repro.lotos.syntax import Specification

# ----------------------------------------------------------------------
# The paper's own examples, as canonical texts.
# ----------------------------------------------------------------------

EXAMPLE2_COUNTING = """SPEC A WHERE
  PROC A = (a1; A >> b2; exit) [] (a1; b2; exit)
END ENDSPEC"""

EXAMPLE3_FILE_TRANSFER = """SPEC S [> interrupt3; exit WHERE
  PROC S = (read1; push2; S >> pop2; write3; exit)
        [] (eof1; make3; exit) END
ENDSPEC"""

EXAMPLE4_SEQUENCE = "SPEC a1; exit >> b2; exit ENDSPEC"

EXAMPLE7_TWO_INSTANCES = """SPEC B ||| B WHERE
  PROC B = (a1; (b2; exit ||| c3; exit)) >> g4; exit
END ENDSPEC"""

TRANSPORT_SESSION = """SPEC Session [> abort1; exit WHERE
  PROC Session =
      ( conreq1; conind2;
          ( (accept2; confirm1; Transfer >> disreq2; disind1; exit)
            [] (reject2; refused1; exit) ) )
      [] ( quit1; exit )
  END
  PROC Transfer =
      ( datareq1; dataind2; Transfer >> ack2; ackind1; exit )
      [] ( datareq1; dataind2; ack2; ackind1; exit )
  END
ENDSPEC"""


# ----------------------------------------------------------------------
# Parametric families.
# ----------------------------------------------------------------------
def pipeline(places: int, rounds: int = 1) -> Specification:
    """``a1; a2; ...; an`` repeated ``rounds`` times: pure sequencing.

    Each hop crosses one place boundary, so the derived protocol needs
    exactly ``places * rounds - 1`` messages (Section 4.3's one message
    per ``;``).
    """
    if places < 1 or rounds < 1:
        raise ValueError("places and rounds must be positive")
    events: List[str] = []
    for round_index in range(rounds):
        for place in range(1, places + 1):
            events.append(f"t{round_index}x{place}")
    chain = "; ".join(events)
    return parse(f"SPEC {chain}; exit ENDSPEC")


def fan_out_join(places: int) -> Specification:
    """``start >> (branch_2 ||| ... ||| branch_n) >> join``.

    Demonstrates the parallel multiplication factor of Section 4.3: the
    start and join synchronizations each fan out to ``places - 1``
    branches.
    """
    if places < 3:
        raise ValueError("need at least 3 places (start, one branch, join)")
    branches = " ||| ".join(f"w{place}; exit" for place in range(2, places))
    return parse(
        f"SPEC start1; exit >> ({branches}) >> join{places}; exit ENDSPEC"
    )


def choice_ladder(alternatives: int, places: int = 3) -> Specification:
    """A ladder of choices, all starting at place 1, ending at ``places``.

    Each alternative walks a different route through the middle places,
    so the Alternative synchronization of Section 3.2 fires for the
    places skipped by the chosen branch.
    """
    if alternatives < 2:
        raise ValueError("need at least two alternatives")
    branch_texts = []
    for index in range(alternatives):
        middle = 2 + (index % max(places - 2, 1))
        branch_texts.append(f"(c{index}x1; m{index}x{middle}; z{index}x{places}; exit)")
    body = " [] ".join(branch_texts)
    return parse(f"SPEC {body} ENDSPEC")


def recursion_tower(places: int = 2) -> Specification:
    """The a^n b^n counter generalized to a chain of unwinding places."""
    if places < 2:
        raise ValueError("need at least 2 places")
    tail = "; ".join(f"u{place}" for place in range(2, places + 1))
    return parse(
        f"SPEC A WHERE PROC A = (a1; A >> {tail}; exit)"
        f" [] (a1; {tail}; exit) END ENDSPEC"
    )


def interrupt_stack(places: int) -> Specification:
    """A pipeline guarded by an interrupt at its last place (E6 family)."""
    if places < 2:
        raise ValueError("need at least 2 places")
    chain = "; ".join(f"q{place}" for place in range(1, places + 1))
    return parse(
        f"SPEC ({chain}; exit) [> (k{places}; exit) ENDSPEC"
    )


def process_chain(length: int, places: int = 3) -> Specification:
    """``P1 >> P2 >> ... >> Pk`` with each ``Pi`` a small cross-place hop.

    Stresses process invocation synchronization (Section 3.4): each
    invocation broadcasts to every non-starting place.
    """
    if length < 1:
        raise ValueError("need at least one process")
    names = [f"P{index}" for index in range(length)]
    body = " >> ".join(names)
    definitions = []
    for index, name in enumerate(names):
        first = 1 + (index % places)
        second = 1 + ((index + 1) % places)
        definitions.append(
            f"PROC {name} = h{index}x{first}; g{index}x{second}; exit END"
        )
    return parse(f"SPEC {body} WHERE {' '.join(definitions)} ENDSPEC")
