(** Terminal line charts for the experiment harness.

    Renders multiple (x, y) series on a shared pair of log axes with
    single-character markers — enough to eyeball the paper's log-log
    latency figures (crossovers, divergence, saturation) straight from the
    terminal.  Points are nearest-cell rasterised and collisions show the
    later series' marker. *)

type series = { label : string; marker : char; points : (float * float) list }

val render : series list -> string
(** [render series] draws all series on one 64x16 canvas: processors on a
    log2 x axis, cycles on a log10 y axis.  Non-positive values, NaNs and
    infinities are skipped.  Returns a multi-line string ending in a
    legend.  Raises [Invalid_argument] if no series has a plottable
    point. *)
