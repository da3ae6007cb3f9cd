(** Bit layout of the coalescing SkipQueue's packed per-node lock word
    (DESIGN.md §S21).

    Both polymlb exemplars of the source paper guard a node that carries a
    bounded multiset of same-priority elements with a {e single} machine
    word instead of a lock array: the low [max_level] bits are the per-level
    pointer locks of Fig. 9's [getLock], the next bit is the full-node
    insert/delete lock (Fig. 10/11's node lock), and the high bits hold the
    node's element accounting.  Packing everything into one word means
    every lock acquisition, release and count update for a node is one
    atomic step on the {e same} shared cell — on the simulator's flat
    memory model, one memory line — which is precisely what makes the
    layout's head-line behaviour measurable against the lock-array
    SkipQueue.  Acquisitions, admissions and claims are CASes, because
    each must test the word first; a release is one fetch-and-add of the
    negated {!level_bit} or {!full_bit}, because only the holder clears
    its bit.

    The accounting is two monotone tickets rather than a live count:
    [born] counts elements ever admitted, [claimed] counts elements ever
    claimed by delete-mins, and the live count is their difference.  A
    delete-min's claim is then a single lock-free CAS ([claim_n]): the
    [claimed] ticket it advances names the claimed element's position in
    the node's append-only value slab, so the claim needs neither the
    full bit nor a slab write — while still committing on the same cell
    as every join and lock transition, which totally orders them.

    This module is pure integer arithmetic: no runtime, no shared cells.
    The skiplist composes the acquire and ticket functions inside CAS
    retry loops, and passes the old word a release's fetch-and-add
    returns through [unlock_level] / [unlock_full] to check it; the
    qcheck suite round-trips the encoding independently of any
    structure.

    Discipline violations — acquiring a held lock bit, releasing a free
    one, claiming past the born ticket, overflowing a ticket field —
    raise {!Violation} rather than silently corrupting neighbouring
    bits.  The release checks are the cheap torn-update detectors: a lost
    or leaked bit surfaces as a double release at the latest. *)

type layout
(** Field geometry for a given [max_level].  Words are non-negative and
    fit in 62 bits ([OCaml]'s tagged int on 64-bit), so a word is a valid
    payload for any runtime's shared cell and CAS compares it by value. *)

exception Violation of string
(** Raised on any locking-discipline or ticket-range violation.  The
    message names the offended field. *)

val make : max_level:int -> layout
(** [make ~max_level] lays out [max_level] level-lock bits (levels are
    1-based, matching the skiplist), one full-lock bit, and two equal-width
    ticket fields in the remaining high bits.  Raises [Invalid_argument]
    outside [1 <= max_level <= 40]. *)

val max_level : layout -> int

val count_capacity : layout -> int
(** Largest representable ticket value — the hard ceiling on a node's slab
    capacity ([2^((61 - max_level - 1) / 2) - 1]; over a million at the
    skiplist's default [max_level = 20], still 1023 at the cap). *)

val empty : int
(** The word of a node holding no locks and no elements: [0]. *)

(** {2 Level locks} *)

val level_bit : layout -> int -> int
(** [level_bit l i]: the mask of level [i]'s lock bit.  Raises
    [Invalid_argument] if [i] is outside [\[1, max_level\]]. *)

val level_locked : layout -> int -> int -> bool
(** [level_locked l w i]: is level [i]'s lock bit set in [w]?  Raises
    [Invalid_argument] if [i] is outside [\[1, max_level\]]. *)

val lock_level : layout -> int -> int -> int
(** Set level [i]'s bit.  Raises {!Violation} if already set (an acquire
    of a held lock must loop on the cell, not re-enter). *)

val unlock_level : layout -> int -> int -> int
(** Clear level [i]'s bit.  Raises {!Violation} if not set (double
    release, or a torn update lost the bit). *)

(** {2 Full-node lock} *)

val full_bit : layout -> int
(** The mask of the full-lock bit. *)

val full_locked : layout -> int -> bool
val lock_full : layout -> int -> int
val unlock_full : layout -> int -> int

(** {2 Tickets and the live count} *)

val born : layout -> int -> int
(** Elements ever admitted to the node (monotone). *)

val claimed : layout -> int -> int
(** Elements ever claimed from the node (monotone, [<= born]). *)

val count : layout -> int -> int
(** Live count: [born - claimed].  Zero is final for a node once reached
    (joins refuse dead nodes), which is what makes it the logical-deletion
    test. *)

val admit : layout -> int -> int
(** One more element admitted: [born + 1].  Raises {!Violation} at
    {!count_capacity} (ticket overflow; the structure bounds slabs far
    below this). *)

val claim_n : layout -> int -> int -> int
(** [claim_n l w n] claims [n] elements at once ([n >= 1]; more than one
    is a batch served out of one node): [claimed + n].  The pre-claim
    [claimed] value names the first claimed element: the 1-based position,
    oldest first, in the node's append-only slab.  Raises {!Violation}
    past the born ticket (a claim raced or tore). *)

(** {2 Decoded view (tests)} *)

type fields = {
  born : int;
  claimed : int;
  full : bool;
  levels : int list;  (** held level locks, ascending, 1-based *)
}

val encode : layout -> fields -> int
(** Raises {!Violation} on out-of-range tickets ([claimed > born]
    included) or a duplicate/out-of-range level. *)

val decode : layout -> int -> fields
(** Total on any word [encode] can produce; [decode l (encode l f) = f]
    (with [f.levels] sorted and duplicate-free) is the qcheck round-trip
    property. *)
