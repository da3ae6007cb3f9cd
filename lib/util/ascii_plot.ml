type series = { label : string; marker : char; points : (float * float) list }

(* The one layout every caller uses: the paper's log-log latency curves,
   processors on a log2 axis against cycles on a log10 axis. *)
let width = 64
let height = 16
let x_label = "processors"
let y_label = "cycles (log10)"

type scale = Log2 | Log10

let apply_scale scale v =
  if v <= 0.0 then None
  else Some (match scale with Log2 -> Float.log2 v | Log10 -> log10 v)

let plottable (x, y) =
  if not (Float.is_finite x && Float.is_finite y) then None
  else
    match (apply_scale Log2 x, apply_scale Log10 y) with
    | Some sx, Some sy when Float.is_finite sx && Float.is_finite sy -> Some (sx, sy)
    | _ -> None

let axis_text scale v =
  let raw = match scale with Log2 -> Float.pow 2.0 v | Log10 -> Float.pow 10.0 v in
  if Float.abs raw >= 10_000.0 || (Float.abs raw < 0.01 && raw <> 0.0) then
    Printf.sprintf "%.1e" raw
  else Printf.sprintf "%g" raw

let render series =
  let scaled = List.map (fun s -> (s, List.filter_map plottable s.points)) series in
  let all_points = List.concat_map snd scaled in
  if all_points = [] then invalid_arg "Ascii_plot.render: nothing to plot";
  let xs = List.map fst all_points and ys = List.map snd all_points in
  let min_x = List.fold_left Float.min infinity xs in
  let max_x = List.fold_left Float.max neg_infinity xs in
  let min_y = List.fold_left Float.min infinity ys in
  let max_y = List.fold_left Float.max neg_infinity ys in
  let span v_min v_max = if v_max -. v_min <= 0.0 then 1.0 else v_max -. v_min in
  let x_span = span min_x max_x and y_span = span min_y max_y in
  let canvas = Array.make_matrix height width ' ' in
  let rasterize (s, points) =
    List.iter
      (fun (x, y) ->
        let col =
          int_of_float ((x -. min_x) /. x_span *. float_of_int (width - 1) +. 0.5)
        in
        let row =
          height - 1
          - int_of_float ((y -. min_y) /. y_span *. float_of_int (height - 1) +. 0.5)
        in
        if row >= 0 && row < height && col >= 0 && col < width then
          canvas.(row).(col) <- s.marker)
      points
  in
  List.iter rasterize scaled;
  let buf = Buffer.create ((width + 16) * (height + 4)) in
  Buffer.add_string buf y_label;
  Buffer.add_char buf '\n';
  let top_tick = axis_text Log10 max_y and bottom_tick = axis_text Log10 min_y in
  let margin = Int.max (String.length top_tick) (String.length bottom_tick) in
  Array.iteri
    (fun row line ->
      let tick =
        if row = 0 then top_tick else if row = height - 1 then bottom_tick else ""
      in
      Buffer.add_string buf (Printf.sprintf "%*s |" margin tick);
      Array.iter (Buffer.add_char buf) line;
      Buffer.add_char buf '\n')
    canvas;
  Buffer.add_string buf (String.make (margin + 2) ' ');
  Buffer.add_string buf (String.make width '-');
  Buffer.add_char buf '\n';
  let left_tick = axis_text Log2 min_x and right_tick = axis_text Log2 max_x in
  Buffer.add_string buf (String.make (margin + 2) ' ');
  Buffer.add_string buf left_tick;
  let pad = width - String.length left_tick - String.length right_tick in
  Buffer.add_string buf (String.make (Int.max 1 pad) ' ');
  Buffer.add_string buf right_tick;
  Buffer.add_string buf ("  " ^ x_label);
  Buffer.add_char buf '\n';
  List.iter
    (fun s ->
      Buffer.add_string buf (Printf.sprintf "  %c = %s\n" s.marker s.label))
    series;
  Buffer.contents buf
