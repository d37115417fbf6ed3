(* Node 0 is the constant-false node.  Inputs have fanin0 = -1 and carry
   their input index in fanin1.  AND nodes store two literal fanins with
   fanin0 >= fanin1 (canonical order for hashing). *)

type man = {
  mutable fanin0 : int array;
  mutable fanin1 : int array;
  mutable n : int;                         (* nodes allocated *)
  mutable ninputs : int;
  strash : (int * int, int) Hashtbl.t;     (* (f0, f1) -> node *)
  mutable inputs : int array;              (* input index -> node *)
}

type lit = int

let lit_false = 0
let lit_true = 1
let node_of l = l lsr 1
let is_complemented l = l land 1 = 1
let not_ l = l lxor 1
let mk_lit node compl = (node lsl 1) lor (if compl then 1 else 0)

let create () =
  let m =
    {
      fanin0 = Array.make 64 0;
      fanin1 = Array.make 64 0;
      n = 0;
      ninputs = 0;
      strash = Hashtbl.create 251;
      inputs = Array.make 16 0;
    }
  in
  (* Constant node. *)
  m.fanin0.(0) <- -2;
  m.fanin1.(0) <- -2;
  m.n <- 1;
  m

let clone m =
  {
    fanin0 = Array.copy m.fanin0;
    fanin1 = Array.copy m.fanin1;
    n = m.n;
    ninputs = m.ninputs;
    strash = Hashtbl.copy m.strash;
    inputs = Array.copy m.inputs;
  }

let grow m =
  if m.n = Array.length m.fanin0 then begin
    let cap = 2 * m.n in
    let f0 = Array.make cap 0 and f1 = Array.make cap 0 in
    Array.blit m.fanin0 0 f0 0 m.n;
    Array.blit m.fanin1 0 f1 0 m.n;
    m.fanin0 <- f0;
    m.fanin1 <- f1
  end

let fresh_input m =
  grow m;
  let node = m.n in
  m.fanin0.(node) <- -1;
  m.fanin1.(node) <- m.ninputs;
  m.n <- node + 1;
  if m.ninputs = Array.length m.inputs then begin
    let a = Array.make (2 * m.ninputs) 0 in
    Array.blit m.inputs 0 a 0 m.ninputs;
    m.inputs <- a
  end;
  m.inputs.(m.ninputs) <- node;
  m.ninputs <- m.ninputs + 1;
  mk_lit node false

let input m i =
  if i < 0 || i >= m.ninputs then invalid_arg "Aig.input: no such input";
  mk_lit m.inputs.(i) false

let num_inputs m = m.ninputs
let num_nodes m = m.n

let is_const _ l = node_of l = 0
let is_input m l = m.fanin0.(node_of l) = -1
let is_and m l = m.fanin0.(node_of l) >= 0
let num_ands m = m.n - m.ninputs - 1

let input_index m l =
  if not (is_input m l) then invalid_arg "Aig.input_index: not an input";
  m.fanin1.(node_of l)

let fanins m l =
  if not (is_and m l) then invalid_arg "Aig.fanins: not an AND node";
  let node = node_of l in
  (m.fanin0.(node), m.fanin1.(node))

let and_ m a b =
  (* One-level simplifications. *)
  if a = lit_false || b = lit_false then lit_false
  else if a = lit_true then b
  else if b = lit_true then a
  else if a = b then a
  else if a = not_ b then lit_false
  else begin
    let f0, f1 = if a >= b then (a, b) else (b, a) in
    match Hashtbl.find_opt m.strash (f0, f1) with
    | Some node -> mk_lit node false
    | None ->
      grow m;
      let node = m.n in
      m.fanin0.(node) <- f0;
      m.fanin1.(node) <- f1;
      m.n <- node + 1;
      Hashtbl.add m.strash (f0, f1) node;
      mk_lit node false
  end

let or_ m a b = not_ (and_ m (not_ a) (not_ b))
let implies m a b = or_ m (not_ a) b
let xor_ m a b = or_ m (and_ m a (not_ b)) (and_ m (not_ a) b)
let iff_ m a b = not_ (xor_ m a b)
let ite m c t e = or_ m (and_ m c t) (and_ m (not_ c) e)
let big_and m = List.fold_left (and_ m) lit_true
let big_or m = List.fold_left (or_ m) lit_false

let eval m env root =
  let memo = Hashtbl.create 64 in
  let rec node_value node =
    match Hashtbl.find_opt memo node with
    | Some v -> v
    | None ->
      let v =
        if node = 0 then false
        else if m.fanin0.(node) = -1 then env m.fanin1.(node)
        else lit_value m.fanin0.(node) && lit_value m.fanin1.(node)
      in
      Hashtbl.add memo node v;
      v
  and lit_value l = if is_complemented l then not (node_value (node_of l)) else node_value (node_of l) in
  lit_value root

let eval64 m env root =
  let memo = Hashtbl.create 64 in
  let rec node_value node =
    match Hashtbl.find_opt memo node with
    | Some v -> v
    | None ->
      let v =
        if node = 0 then 0L
        else if m.fanin0.(node) = -1 then env m.fanin1.(node)
        else Int64.logand (lit_value m.fanin0.(node)) (lit_value m.fanin1.(node))
      in
      Hashtbl.add memo node v;
      v
  and lit_value l =
    if is_complemented l then Int64.lognot (node_value (node_of l)) else node_value (node_of l)
  in
  lit_value root

(* The one structural cone walk of the library: every traversal below —
   single-root folds, support computation, reachable-AND counts in the
   linter, COI closures, fingerprinting — goes through this walker, so
   the union of many cones is visited with a single shared seen-set.  The
   set is a byte mark per node: walks cover a sizeable share of the
   manager, where clearing a flat array is far cheaper than hashing every
   visited node. *)
let walker m ~size =
  let seen = ref (Bytes.make size '\000') in
  let rec visit f node =
    if Bytes.get !seen node = '\000' then begin
      Bytes.set !seen node '\001';
      if m.fanin0.(node) >= 0 then begin
        visit f (node_of m.fanin0.(node));
        visit f (node_of m.fanin1.(node))
      end;
      f node
    end
  in
  fun root ~f ->
    let node = node_of root in
    let len = Bytes.length !seen in
    if node >= len then begin
      (* Nodes made after the walker: widen the mark to the manager. *)
      let wider = Bytes.make m.n '\000' in
      Bytes.blit !seen 0 wider 0 len;
      seen := wider
    end;
    visit f node

let cone_walk m = walker m ~size:m.n

let iter_cones m roots ~f =
  match roots with
  | [] -> ()
  | _ ->
    (* Every cone node lies below its root, so the mark need only reach
       the highest root. *)
    let top = List.fold_left (fun acc r -> max acc (node_of r)) 0 roots in
    let walk = walker m ~size:(top + 1) in
    List.iter (fun root -> walk root ~f) roots

let fold_cones m roots ~init ~f =
  let acc = ref init in
  iter_cones m roots ~f:(fun node -> acc := f !acc node);
  !acc

let fold_cone m root ~init ~f = fold_cones m [ root ] ~init ~f

let support m root =
  fold_cone m root ~init:[] ~f:(fun acc node ->
      if m.fanin0.(node) = -1 then m.fanin1.(node) :: acc else acc)
  |> List.sort_uniq Int.compare

let cone_sizes m roots =
  fold_cones m roots ~init:0 ~f:(fun acc node -> if m.fanin0.(node) >= 0 then acc + 1 else acc)

let cone_size m root = cone_sizes m [ root ]

let substitute m sigma root =
  let memo = Hashtbl.create 64 in
  let rec node_value node =
    match Hashtbl.find_opt memo node with
    | Some v -> v
    | None ->
      let v =
        if node = 0 then lit_false
        else if m.fanin0.(node) = -1 then sigma m.fanin1.(node)
        else and_ m (lit_value m.fanin0.(node)) (lit_value m.fanin1.(node))
      in
      Hashtbl.add memo node v;
      v
  and lit_value l = if is_complemented l then not_ (node_value (node_of l)) else node_value (node_of l) in
  lit_value root

let to_dot ?(input_name = Printf.sprintf "i%d") m roots =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph aig {\n  rankdir=BT;\n";
  let seen = Hashtbl.create 64 in
  let edge from_node l =
    let style = if is_complemented l then " [style=dashed]" else "" in
    Buffer.add_string buf
      (Printf.sprintf "  n%d -> n%d%s;\n" from_node (node_of l) style)
  in
  let rec visit node =
    if not (Hashtbl.mem seen node) then begin
      Hashtbl.add seen node ();
      if node = 0 then
        Buffer.add_string buf (Printf.sprintf "  n0 [label=\"0\",shape=box];\n")
      else if m.fanin0.(node) = -1 then
        Buffer.add_string buf
          (Printf.sprintf "  n%d [label=\"%s\",shape=box,style=rounded];\n" node
             (input_name m.fanin1.(node)))
      else begin
        Buffer.add_string buf (Printf.sprintf "  n%d [label=\"&\"];\n" node);
        visit (node_of m.fanin0.(node));
        visit (node_of m.fanin1.(node));
        edge node m.fanin0.(node);
        edge node m.fanin1.(node)
      end
    end
  in
  List.iteri
    (fun i (name, root) ->
      visit (node_of root);
      Buffer.add_string buf
        (Printf.sprintf "  out%d [label=\"%s\",shape=plaintext];\n" i name);
      let style = if is_complemented root then " [style=dashed]" else "" in
      Buffer.add_string buf (Printf.sprintf "  out%d -> n%d%s;\n" i (node_of root) style))
    roots;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let copier ~src ~dst ~map =
  let memo = Hashtbl.create 256 in
  let rec node_value node =
    match Hashtbl.find_opt memo node with
    | Some v -> v
    | None ->
      let v =
        if node = 0 then lit_false
        else if src.fanin0.(node) = -1 then map src.fanin1.(node)
        else and_ dst (lit_value src.fanin0.(node)) (lit_value src.fanin1.(node))
      in
      Hashtbl.add memo node v;
      v
  and lit_value l =
    if is_complemented l then not_ (node_value (node_of l)) else node_value (node_of l)
  in
  lit_value

let pp m fmt root =
  let rec go fmt l =
    let node = node_of l in
    if is_complemented l then Format.fprintf fmt "!%a" go_node node else go_node fmt node
  and go_node fmt node =
    if node = 0 then Format.pp_print_string fmt "0"
    else if m.fanin0.(node) = -1 then Format.fprintf fmt "i%d" m.fanin1.(node)
    else Format.fprintf fmt "(%a & %a)" go m.fanin0.(node) go m.fanin1.(node)
  in
  go fmt root
