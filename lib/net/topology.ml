(* Fabric topology: how hosts are wired together.

   [Shared_medium] is the paper's single 3 Mbit Ethernet — every frame
   serializes on one wire. [Switched] is a two-tier switched fabric:
   hosts attach to edge switches ([fan_in] hosts per edge, by address
   range), and every edge switch uplinks to one spine. Each cable is a
   full-duplex pair of directed links that carry traffic independently,
   so segments transmit concurrently and aggregate throughput scales
   with the edge count instead of being pinned to one wire.

   This module is pure data and arithmetic: which edge a host hangs
   off, which nodes a frame visits between two hosts, which directed
   links that path crosses. The queueing and timing live in
   {!Ethernet}. *)

type t = Shared_medium | Switched of { fan_in : int }

type node = Host of int | Edge of int | Spine

let switched ~fan_in =
  if fan_in < 1 then invalid_arg "Topology.switched: fan_in must be >= 1";
  Switched { fan_in }

let equal_node a b =
  match (a, b) with
  | Host x, Host y | Edge x, Edge y -> x = y
  | Spine, Spine -> true
  | _ -> false

let pp_node ppf = function
  | Host a -> Fmt.pf ppf "host%d" a
  | Edge e -> Fmt.pf ppf "edge%d" e
  | Spine -> Fmt.string ppf "spine"

let node_to_string n = Fmt.str "%a" pp_node n

(* Parse what [pp_node] prints; the vsh `net` command round-trips
   through this. *)
let node_of_string s =
  let prefixed p =
    let n = String.length p in
    if String.length s > n && String.sub s 0 n = p then
      int_of_string_opt (String.sub s n (String.length s - n))
    else None
  in
  if s = "spine" then Some Spine
  else
    match prefixed "host" with
    | Some a -> Some (Host a)
    | None -> (
        match prefixed "edge" with Some e -> Some (Edge e) | None -> None)

let pp ppf = function
  | Shared_medium -> Fmt.string ppf "shared medium (single wire)"
  | Switched { fan_in } ->
      Fmt.pf ppf "switched fabric (%d hosts per edge switch, one spine)"
        fan_in

(* Which edge switch serves a host address. Addresses are arbitrary
   non-negative ints (the installation's address plan), so the mapping
   is a plain range partition. *)
let edge_of ~fan_in addr =
  if addr < 0 then invalid_arg "Topology.edge_of: negative address";
  addr / fan_in

(* The nodes a frame visits from [src] to [dst], endpoints included.
   Same edge: host -> edge -> host. Across edges: host -> edge ->
   spine -> edge -> host. [Shared_medium] has no interior nodes. *)
let path t ~src ~dst =
  match t with
  | Shared_medium -> [ Host src; Host dst ]
  | Switched { fan_in } ->
      let ea = edge_of ~fan_in src and eb = edge_of ~fan_in dst in
      if ea = eb then [ Host src; Edge ea; Host dst ]
      else [ Host src; Edge ea; Spine; Edge eb; Host dst ]

(* Directed links crossed by a node path, in traversal order. *)
let rec links_of_path = function
  | a :: (b :: _ as rest) -> (a, b) :: links_of_path rest
  | [ _ ] | [] -> []

let links t ~src ~dst = links_of_path (path t ~src ~dst)

(* Store-and-forward hops between two hosts: the number of directed
   links a frame is serialized onto. 1 on the shared wire. *)
let hop_count t ~src ~dst = List.length (links t ~src ~dst)

let pp_link ppf (a, b) = Fmt.pf ppf "%a->%a" pp_node a pp_node b
let link_label l = Fmt.str "%a" pp_link l

(* Split a [link_label] back into its nodes; [None] for anything that
   is not "a->b" with two parseable nodes. *)
let link_of_label s =
  let n = String.length s in
  let rec find i =
    if i + 1 >= n then None
    else if s.[i] = '-' && s.[i + 1] = '>' then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i -> (
      match
        ( node_of_string (String.sub s 0 i),
          node_of_string (String.sub s (i + 2) (n - i - 2)) )
      with
      | Some a, Some b -> Some (a, b)
      | _ -> None)

(* The rollup group for a telemetry leaf scope named after this
   topology's nodes or links: hosts group under their edge switch, and
   a link groups under the edge it touches — so per-edge rollup rows
   aggregate a whole segment (the edge's hosts, their access links and
   its uplink). Labels that are not topology-shaped (kernel host
   names, "obs", ...) and the shared medium (no segments to group by)
   yield [None]: the leaf still reaches the fleet level. *)
let rollup_scope t label =
  match t with
  | Shared_medium -> None
  | Switched { fan_in } -> (
      let edge_scope e = Some (node_to_string (Edge e)) in
      let node_scope = function
        | Host h -> if h >= 0 then edge_scope (edge_of ~fan_in h) else None
        | Edge e -> edge_scope e
        | Spine -> None
      in
      match link_of_label label with
      | Some (a, b) -> (
          match (a, b) with
          | (Edge e, _ | _, Edge e) -> edge_scope e
          | _ -> None)
      | None -> (
          match node_of_string label with
          | Some node -> node_scope node
          | None -> None))

(* Dense link index of the switched fabric, so per-link state can live
   in an array: host [h]'s access links are 4h (uplink, host->edge) and
   4h+1 (downlink, edge->host); edge [e]'s are 4e+2 (uplink,
   edge->spine) and 4e+3 (downlink, spine->edge). *)
let host_uplink h = h lsl 2
let host_downlink h = (h lsl 2) lor 1
let edge_uplink e = (e lsl 2) lor 2
let edge_downlink e = (e lsl 2) lor 3

let link_index t (a, b) =
  match (t, a, b) with
  | Switched { fan_in }, Host h, Edge e when h >= 0 && edge_of ~fan_in h = e ->
      Some (host_uplink h)
  | Switched { fan_in }, Edge e, Host h when h >= 0 && edge_of ~fan_in h = e ->
      Some (host_downlink h)
  | Switched _, Edge e, Spine when e >= 0 -> Some (edge_uplink e)
  | Switched _, Spine, Edge e when e >= 0 -> Some (edge_downlink e)
  | _ -> None

(* Is [(a, b)] a directed link of the topology's graph? Both directions
   of a cable are valid, independent links. The shared medium has no
   links at all. *)
let is_link t l = Option.is_some (link_index t l)

let link_of_index t i =
  match t with
  | Shared_medium -> invalid_arg "Topology.link_of_index: no links"
  | Switched { fan_in } -> (
      let x = i lsr 2 in
      match i land 3 with
      | 0 -> (Host x, Edge (edge_of ~fan_in x))
      | 1 -> (Edge (edge_of ~fan_in x), Host x)
      | 2 -> (Edge x, Spine)
      | _ -> (Spine, Edge x))
