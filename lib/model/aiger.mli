(** AIGER reading and writing, both the ASCII ([aag]) and the binary
    ([aig]) encodings — the formats the HWMCC benchmark sets are
    distributed in.

    The reader accepts AIGER 1.0 and the 1.9 latch-reset extension
    (a third field on latch lines holding 0 or 1), dispatching on the
    header.  The single output — or the first [B] badness line, when
    present — is taken as the bad-state literal.  ASCII AND definitions
    must appear in topological order, which every generated AIGER file in
    practice satisfies (the binary encoding enforces it by
    construction). *)

val parse_string : ?name:string -> string -> (Model.t, string) Result.t
(** Auto-detects [aag] vs [aig] by the header.  Total: any text yields
    [Ok] of a model that passes {!Model.validate}, or [Error] with a
    one-line reason — negative or non-decimal fields, out-of-range or
    undefined literals, redefined variables, or a header declaring more
    than the text can hold.  Nothing is allocated beyond O(text length). *)

val parse_file : string -> (Model.t, string) Result.t

val to_string : Model.t -> string
(** ASCII encoding. *)

val to_binary_string : Model.t -> string

val write_file : ?format:[ `Ascii | `Binary ] -> Model.t -> string -> unit
(** Default [`Ascii]. *)

val parse_string_multi : ?name:string -> string -> (Model.t list, string) Result.t
(** Like {!parse_string}, but returns one model per output/bad line (all
    sharing the same AIG manager, differing only in the bad literal and a
    [_pN] name suffix).  Files with no outputs yield a single model with
    a constant-false bad. *)

val witness_to_string : Model.t -> Trace.t -> string
(** HWMCC witness format for a counterexample: status line [1], property
    line [b0], the initial latch values, one input line per frame, and a
    terminating [.]. *)

val witness_of_string : Model.t -> string -> (Trace.t, string) Result.t
(** Parses a witness back; checks line widths against the model. *)
