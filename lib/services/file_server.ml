(* The V storage server: a CSNH server over the inode filesystem.

   Context identifiers map onto directories, which act as starting
   points for interpreting relative pathnames (§6) — the well-known ids
   name the root, the owner's home directory and the standard program
   directory; every other directory gets an ordinary context id derived
   from its inode. Cross-server links in directories become request
   forwarding. File access runs over the I/O protocol, with optional
   read-ahead. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid
module Service = Vkernel.Service
module Calibration = Vnet.Calibration
open Vnaming

(* Ordinary context ids are inode numbers displaced past the well-known
   range. *)
let ctx_base = Context.Well_known.first_ordinary
let ctx_of_ino ino = ino + ctx_base

type open_file = {
  of_ino : int;
  of_name : string;
  of_mode : Vmsg.open_mode;
  of_base_block : int;  (* nonzero for append mode *)
  mutable of_last_block : int;
}

type instance_kind = Open_file of open_file | Dir_image of bytes * string

(* A user account: the second object type this server implements
   (§5.2: "a file server may implement both files and user accounts"),
   living in its own context. *)
type account = { acct_name : string; acct_created : float; acct_home : int }

type t = {
  server_name : string;
  owner : string;
  fs : Fs.t;
  disk : Disk.t;
  engine : Vsim.Engine.t;
  instances : (int, instance_kind) Hashtbl.t;
  mutable next_instance : int;
  mutable read_ahead : int; (* blocks prefetched past a sequential read *)
  mutable home_ino : int;
  mutable programs_ino : int;
  mutable users_ino : int;
  accounts : (string, account) Hashtbl.t;
  stats : Csnh.server_stats;
  guard : Seq_guard.t;
      (* dedupe of replicated writes on (origin, seq); the applied marks
         are durable like the disk, the reply cache is not *)
  mutable pid : Pid.t option;
  (* Hub and host name for byte-count metrics, set at spawn. *)
  mutable obs : Vobs.Hub.t option;
  mutable obs_host : string;
  (* Overload-protection policy; [None] = admission off. Survives
     [restart_from] (the record is copied), so a protected server
     rebooted over its disk comes back protected. *)
  mutable admission_cfg : Admission.config option;
}

let pid t = match t.pid with Some p -> p | None -> failwith "file server not started"

(* Overload protection: store the policy on the record and install it
   on the live serving process; [spawn_server] re-installs on every
   (re)boot, so protection survives [restart_from]. *)
let enable_admission t domain ?(config = Admission.file_server ()) () =
  t.admission_cfg <- Some config;
  match t.pid with
  | Some p -> Admission.install domain p config
  | None -> ()

let disable_admission t domain =
  t.admission_cfg <- None;
  match t.pid with Some p -> Admission.uninstall domain p | None -> ()

let admission_config t = t.admission_cfg
let fs t = t.fs
let applied_wseq t ~origin = Seq_guard.applied_seq t.guard ~origin
let disk t = t.disk
let stats t = t.stats
(* How many blocks to prefetch past each sequential read (0 disables). *)
let set_read_ahead t depth = t.read_ahead <- max 0 depth
let name t = t.server_name

let spec t ~context = Context.spec ~server:(pid t) ~context

(* The low-level identifier of a path: the inode number — what a
   centralized name server would hand out (§2.2 "fewer levels of
   naming"). *)
let low_id_of_path t path =
  match Fs.resolve_path t.fs path with
  | Some (Fs.File_entry ino) | Some (Fs.Dir_entry ino) -> Some ino
  | Some (Fs.Remote_link _) | None -> None

let charge t ms = if ms > 0.0 then Vsim.Proc.delay t.engine ms

let ino_of_ctx t ctx =
  if ctx = Context.Well_known.default then Some Fs.root_ino
  else if ctx = Context.Well_known.home then Some t.home_ino
  else if ctx = Context.Well_known.programs then Some t.programs_ino
  else if ctx >= ctx_base && Fs.is_dir t.fs (ctx - ctx_base) then Some (ctx - ctx_base)
  else None

(* --- the accounts context --- *)

let account_names t =
  Hashtbl.fold (fun n _ acc -> n :: acc) t.accounts [] |> List.sort compare

let describe_account t (a : account) =
  Descriptor.make ~obj_type:Descriptor.User_account ~owner:a.acct_name
    ~created:a.acct_created
    ~attrs:
      [ ("home", Option.value ~default:"?" (Fs.path_of_ino t.fs a.acct_home)) ]
    a.acct_name

(* Creating an account also creates its home directory: one atomic
   single-server operation covering both object types. *)
let create_account t ~now name =
  if Hashtbl.mem t.accounts name then Error Reply.Duplicate_name
  else
    match Fs.mkdir t.fs ~dir:t.users_ino ~owner:name name with
    | Error code -> Error code
    | Ok home ->
        let a = { acct_name = name; acct_created = now; acct_home = home } in
        Hashtbl.replace t.accounts name a;
        Ok a

let remove_account t name =
  match Hashtbl.find_opt t.accounts name with
  | None -> Error Reply.Not_found
  | Some a -> (
      (* The home directory must be empty, like any directory removal. *)
      match Fs.unlink t.fs ~dir:t.users_ino a.acct_name with
      | Ok () ->
          Hashtbl.remove t.accounts name;
          Ok ()
      | Error code -> Error code)

(* --- instances --- *)

let open_instance_count t = Hashtbl.length t.instances

let fresh_instance t kind =
  let id = t.next_instance in
  t.next_instance <- id + 1;
  Hashtbl.replace t.instances id kind;
  id

let instance_info t id =
  match Hashtbl.find_opt t.instances id with
  | None -> None
  | Some (Dir_image (image, _)) ->
      Some
        {
          Vmsg.instance = id;
          file_size = Bytes.length image;
          block_size = Fs.block_size t.fs;
        }
  | Some (Open_file f) ->
      let size =
        match Fs.find t.fs f.of_ino with Some node -> node.Fs.size | None -> 0
      in
      Some
        { Vmsg.instance = id; file_size = size; block_size = Fs.block_size t.fs }

(* --- context directories --- *)

let directory_image t ~dir_ino =
  let entries = Fs.entries t.fs ~dir:dir_ino in
  charge t (float_of_int (List.length entries) *. Calibration.descriptor_fabricate_cpu);
  entries
  |> List.map (fun (name, entry) -> Fs.describe_entry t.fs ~name entry)
  |> Descriptor.directory_to_bytes

(* --- the CSNH handlers --- *)

let describe_dir t dir_ino =
  let path = Option.value ~default:"?" (Fs.path_of_ino t.fs dir_ino) in
  Descriptor.make ~obj_type:Descriptor.Directory
    ~size:(List.length (Fs.entries t.fs ~dir:dir_ino))
    ~owner:t.owner path

let open_existing t ~dir_ino ~name ~mode ino =
  match mode with
  | Vmsg.Read ->
      let f =
        { of_ino = ino; of_name = name; of_mode = mode; of_base_block = 0; of_last_block = -1 }
      in
      let id = fresh_instance t (Open_file f) in
      ignore dir_ino;
      Vmsg.ok ~payload:(Vmsg.P_instance (Option.get (instance_info t id))) ()
  | Vmsg.Write -> (
      match Fs.truncate t.fs ~ino with
      | Error code -> Vmsg.reply code
      | Ok () ->
          let f =
            { of_ino = ino; of_name = name; of_mode = mode; of_base_block = 0; of_last_block = -1 }
          in
          let id = fresh_instance t (Open_file f) in
          Vmsg.ok ~payload:(Vmsg.P_instance (Option.get (instance_info t id))) ())
  | Vmsg.Append ->
      let base =
        match Fs.find t.fs ino with
        | Some node -> Fs.file_blocks t.fs node
        | None -> 0
      in
      let f =
        { of_ino = ino; of_name = name; of_mode = mode; of_base_block = base; of_last_block = -1 }
      in
      let id = fresh_instance t (Open_file f) in
      Vmsg.ok ~payload:(Vmsg.P_instance (Option.get (instance_info t id))) ()
  | Vmsg.Directory_listing -> Vmsg.reply Reply.Not_a_context

let handle_open t ~ctx_ino ~remaining ~mode =
  match remaining with
  | [] ->
      (* The context itself: its directory read as a file (§5.6). *)
      let image = directory_image t ~dir_ino:ctx_ino in
      let path = Option.value ~default:"?" (Fs.path_of_ino t.fs ctx_ino) in
      let id = fresh_instance t (Dir_image (image, path)) in
      Vmsg.ok ~payload:(Vmsg.P_instance (Option.get (instance_info t id))) ()
  | [ name ] -> (
      match Fs.lookup t.fs ~dir:ctx_ino name with
      | Some (Fs.File_entry ino) -> open_existing t ~dir_ino:ctx_ino ~name ~mode ino
      | Some (Fs.Dir_entry _) | Some (Fs.Remote_link _) ->
          (* Directories are consumed by the walk; reaching here means a
             stale entry type. *)
          Vmsg.reply Reply.Not_a_context
      | None -> (
          match mode with
          | Vmsg.Write | Vmsg.Append -> (
              match Fs.create_file t.fs ~dir:ctx_ino ~owner:t.owner name with
              | Error code -> Vmsg.reply code
              | Ok ino -> open_existing t ~dir_ino:ctx_ino ~name ~mode ino)
          | Vmsg.Read | Vmsg.Directory_listing -> Vmsg.reply Reply.Not_found))
  | _ :: _ -> Vmsg.reply Reply.Not_found

(* Resolve all-but-last components of a path local to this server
   (used by Rename's second name). *)
let resolve_local_dir t ~ctx_ino components =
  let rec loop dir = function
    | [] -> Error Reply.Illegal_name
    | [ last ] -> Ok (dir, last)
    | c :: rest -> (
        match Fs.lookup t.fs ~dir c with
        | Some (Fs.Dir_entry ino) -> loop ino rest
        | Some (Fs.Remote_link _) -> Error Reply.No_permission
        | Some (Fs.File_entry _) -> Error Reply.Not_a_context
        | None -> Error Reply.Not_found)
  in
  loop ctx_ino components

let handle_load_file t self ~sender ~ctx_ino ~remaining =
  match remaining with
  | [ name ] -> (
      match Fs.lookup t.fs ~dir:ctx_ino name with
      | Some (Fs.File_entry ino) -> (
          match Fs.read_file t.fs ~ino with
          | Error code -> Vmsg.reply code
          | Ok data -> (
              match Kernel.move_to self ~sender data with
              | Ok () -> Vmsg.ok ~payload:(Vmsg.P_count (Bytes.length data)) ()
              | Error Kernel.Bad_buffer -> Vmsg.reply Reply.Invalid_instance
              | Error _ -> Vmsg.reply Reply.Server_error))
      | Some _ -> Vmsg.reply Reply.No_permission
      | None -> Vmsg.reply Reply.Not_found)
  | _ -> Vmsg.reply Reply.Not_found

(* Operations in the accounts context: a flat name space of a different
   object type, served by the same protocol machinery. *)
let handle_accounts t (msg : Vmsg.t) remaining =
  let open Vmsg in
  let now = Vsim.Engine.now t.engine in
  match remaining with
  | [] ->
      if msg.code = Op.open_instance then begin
        let image =
          Descriptor.directory_to_bytes
            (List.map
               (fun n -> describe_account t (Hashtbl.find t.accounts n))
               (account_names t))
        in
        let id = fresh_instance t (Dir_image (image, "[accounts]")) in
        ok ~payload:(P_instance (Option.get (instance_info t id))) ()
      end
      else if msg.code = Op.map_context then
        ok
          ~payload:
            (P_context_spec (spec t ~context:Context.Well_known.accounts))
          ()
      else if msg.code = Op.query_name then
        ok
          ~payload:
            (P_descriptor
               (Descriptor.make ~obj_type:Descriptor.Directory
                  ~size:(Hashtbl.length t.accounts) ~owner:t.owner "[accounts]"))
          ()
      else reply Reply.Bad_operation
  | [ name ] ->
      if msg.code = Op.query_name then
        match Hashtbl.find_opt t.accounts name with
        | Some a -> ok ~payload:(P_descriptor (describe_account t a)) ()
        | None -> reply Reply.Not_found
      else if msg.code = Op.create_object then (
        match create_account t ~now name with
        | Ok _ -> ok ()
        | Error code -> reply code)
      else if msg.code = Op.remove_object then (
        match remove_account t name with
        | Ok () -> ok ()
        | Error code -> reply code)
      else if msg.code = Op.map_context then
        (* An account's home directory is a context: map through it. *)
        match Hashtbl.find_opt t.accounts name with
        | Some a -> ok ~payload:(P_context_spec (spec t ~context:(ctx_of_ino a.acct_home))) ()
        | None -> reply Reply.Not_found
      else reply Reply.Bad_operation
  | _ :: _ -> Vmsg.reply Reply.Not_found

let handle_csname t self ~sender (msg : Vmsg.t) _req ctx remaining =
  let open Vmsg in
  if ctx = Context.Well_known.accounts then handle_accounts t msg remaining
  else
  match ino_of_ctx t ctx with
  | None -> reply Reply.Bad_context
  | Some ctx_ino ->
      if msg.code = Op.open_instance then
        match msg.payload with
        | P_open { mode } -> handle_open t ~ctx_ino ~remaining ~mode
        | _ -> reply Reply.Bad_operation
      else if msg.code = Op.load_file then
        handle_load_file t self ~sender ~ctx_ino ~remaining
      else if msg.code = Op.query_name then
        match remaining with
        | [] -> ok ~payload:(P_descriptor (describe_dir t ctx_ino)) ()
        | [ name ] -> (
            match Fs.lookup t.fs ~dir:ctx_ino name with
            | Some entry ->
                charge t Calibration.descriptor_fabricate_cpu;
                ok ~payload:(P_descriptor (Fs.describe_entry t.fs ~name entry)) ()
            | None -> reply Reply.Not_found)
        | _ -> reply Reply.Not_found
      else if msg.code = Op.modify_name then
        match (remaining, msg.payload) with
        | [ name ], P_descriptor requested -> (
            match Fs.lookup t.fs ~dir:ctx_ino name with
            | Some entry -> (
                match Fs.modify_entry t.fs entry requested with
                | Ok () -> ok ()
                | Error code -> reply code)
            | None -> reply Reply.Not_found)
        | _ -> reply Reply.Bad_operation
      else if msg.code = Op.map_context then
        match remaining with
        | [] -> ok ~payload:(P_context_spec (spec t ~context:(ctx_of_ino ctx_ino))) ()
        | [ name ] ->
            if Fs.lookup t.fs ~dir:ctx_ino name = None then reply Reply.Not_found
            else reply Reply.Not_a_context
        | _ -> reply Reply.Not_found
      else if msg.code = Op.create_object then
        match (remaining, msg.payload) with
        | [ name ], P_create { directory } -> (
            let result =
              if directory then
                Result.map (fun (_ : int) -> ()) (Fs.mkdir t.fs ~dir:ctx_ino ~owner:t.owner name)
              else
                Result.map (fun (_ : int) -> ())
                  (Fs.create_file t.fs ~dir:ctx_ino ~owner:t.owner name)
            in
            match result with Ok () -> ok () | Error code -> reply code)
        | [], P_create _ ->
            (* The name resolved to an existing context: the walk
               consumed it, so this create names something that already
               exists. *)
            reply Reply.Duplicate_name
        | _ -> reply Reply.Bad_operation
      else if msg.code = Op.remove_object then
        match remaining with
        | [ name ] -> (
            match Fs.unlink t.fs ~dir:ctx_ino name with
            | Ok () -> ok ()
            | Error code -> reply code)
        | [] -> (
            (* Removing a directory by name: the walk descended into it;
               unlink it from its parent (well-known contexts are not
               removable). *)
            if
              ctx_ino = Fs.root_ino || ctx_ino = t.home_ino
              || ctx_ino = t.programs_ino || ctx_ino = t.users_ino
            then reply Reply.No_permission
            else
              match Fs.find t.fs ctx_ino with
              | None -> reply Reply.Not_found
              | Some node -> (
                  match
                    Fs.unlink t.fs ~dir:node.Fs.parent node.Fs.name_in_parent
                  with
                  | Ok () -> ok ()
                  | Error code -> reply code))
        | _ -> reply Reply.Not_found
      else if msg.code = Op.rename_object then
        match (remaining, msg.payload) with
        | [ name ], P_name new_path -> (
            match resolve_local_dir t ~ctx_ino (Csname.components new_path) with
            | Error code -> reply code
            | Ok (new_dir, new_name) -> (
                match Fs.rename t.fs ~dir:ctx_ino name ~new_dir new_name with
                | Ok () -> ok ()
                | Error code -> reply code))
        | _ -> reply Reply.Bad_operation
      else if msg.code = Op.add_context_name then
        match (remaining, msg.payload) with
        | [ name ], P_context_spec target -> (
            (* A cross-server pointer: the curved arrow of Figure 4. *)
            match Fs.add_remote_link t.fs ~dir:ctx_ino name target with
            | Ok () -> ok ()
            | Error code -> reply code)
        | _ -> reply Reply.Bad_operation
      else if msg.code = Op.delete_context_name then
        match remaining with
        | [ name ] -> (
            match Fs.lookup t.fs ~dir:ctx_ino name with
            | Some (Fs.Remote_link _) -> (
                match Fs.unlink t.fs ~dir:ctx_ino name with
                | Ok () -> ok ()
                | Error code -> reply code)
            | Some _ -> reply Reply.No_permission
            | None -> reply Reply.Not_found)
        | _ -> reply Reply.Not_found
      else reply Reply.Bad_operation

(* Count bytes served/stored against (host, server-name, op). *)
let io_bytes t op n =
  Vobs.Hub.count ~by:n t.obs ~host:t.obs_host ~server:t.server_name ~op

let handle_io t (msg : Vmsg.t) =
  let open Vmsg in
  match msg.payload with
  | P_read { instance; block } when msg.code = Op.read_instance -> (
      match Hashtbl.find_opt t.instances instance with
      | None -> Some (reply Reply.Invalid_instance)
      | Some (Dir_image (image, _)) ->
          let bs = Fs.block_size t.fs in
          let off = block * bs in
          if block < 0 then Some (reply Reply.Invalid_instance)
          else if off >= Bytes.length image then Some (reply Reply.End_of_file)
          else begin
            let len = min bs (Bytes.length image - off) in
            let data = Bytes.sub image off len in
            io_bytes t "read-bytes" len;
            Some (ok ~extra_bytes:len ~payload:(P_data data) ())
          end
      | Some (Open_file f) -> (
          match Fs.read_block t.fs ~ino:f.of_ino ~block with
          | Error code -> Some (reply code)
          | Ok data ->
              f.of_last_block <- block;
              for ahead = 1 to t.read_ahead do
                Fs.prefetch_block t.fs ~ino:f.of_ino ~block:(block + ahead)
              done;
              io_bytes t "read-bytes" (Bytes.length data);
              Some (ok ~extra_bytes:(Bytes.length data) ~payload:(P_data data) ())))
  | P_write { instance; block; data } when msg.code = Op.write_instance -> (
      match Hashtbl.find_opt t.instances instance with
      | None -> Some (reply Reply.Invalid_instance)
      | Some (Dir_image _) -> Some (reply Reply.No_permission)
      | Some (Open_file f) ->
          if f.of_mode = Vmsg.Read then Some (reply Reply.No_permission)
          else begin
            match
              Fs.write_block t.fs ~ino:f.of_ino ~block:(f.of_base_block + block) data
            with
            | Error code -> Some (reply code)
            | Ok n ->
                io_bytes t "write-bytes" n;
                Some (ok ~payload:(P_count n) ())
          end)
  | P_instance_arg instance when msg.code = Op.query_instance -> (
      match Hashtbl.find_opt t.instances instance with
      | None -> Some (reply Reply.Invalid_instance)
      | Some (Dir_image (image, path)) ->
          Some
            (ok
               ~payload:
                 (P_descriptor
                    (Descriptor.make ~obj_type:Descriptor.Directory
                       ~size:(Bytes.length image) ~owner:t.owner ~instance path))
               ())
      | Some (Open_file f) -> (
          match Fs.describe_ino t.fs f.of_ino with
          | Some d ->
              Some (ok ~payload:(P_descriptor { d with Descriptor.instance = Some instance }) ())
          | None -> Some (reply Reply.Not_found)))
  | P_instance_arg instance when msg.code = Op.release_instance ->
      if Hashtbl.mem t.instances instance then begin
        Hashtbl.remove t.instances instance;
        Some (ok ())
      end
      else Some (reply Reply.Invalid_instance)
  | P_set_size { instance; size } when msg.code = Op.set_instance_size -> (
      match Hashtbl.find_opt t.instances instance with
      | None -> Some (reply Reply.Invalid_instance)
      | Some (Dir_image _) -> Some (reply Reply.No_permission)
      | Some (Open_file f) ->
          if f.of_mode = Vmsg.Read then Some (reply Reply.No_permission)
          else begin
            match Fs.set_size t.fs ~ino:f.of_ino size with
            | Ok () -> Some (ok ())
            | Error code -> Some (reply code)
          end)
  | _ -> None

let handle_other t ~sender:_ (msg : Vmsg.t) =
  let open Vmsg in
  match handle_io t msg with
  | Some reply_msg -> Some reply_msg
  | None ->
      if msg.code = Svc.Op.open_by_low_id then
        match msg.payload with
        | Svc.P_low_id { low_id; mode } -> (
            match Fs.find t.fs low_id with
            | Some node when node.Fs.kind = `File ->
                let name =
                  Option.value ~default:"?" (Fs.path_of_ino t.fs low_id)
                in
                Some (open_existing t ~dir_ino:node.Fs.parent ~name ~mode low_id)
            | Some _ | None -> Some (reply Reply.Not_found))
        | _ -> Some (reply Reply.Bad_operation)
      else if msg.code = Op.inverse_map_context then
        match msg.payload with
        | P_context_id ctx -> (
            match ino_of_ctx t ctx with
            | None -> Some (reply Reply.Bad_context)
            | Some ino -> (
                match Fs.path_of_ino t.fs ino with
                | Some path -> Some (ok ~payload:(P_name path) ())
                | None -> Some (reply Reply.Not_found)))
        | _ -> Some (reply Reply.Bad_operation)
      else if msg.code = Op.inverse_map_instance then
        match msg.payload with
        | P_instance_arg instance -> (
            match Hashtbl.find_opt t.instances instance with
            | Some (Open_file f) -> (
                match Fs.path_of_ino t.fs f.of_ino with
                | Some path -> Some (ok ~payload:(P_name path) ())
                | None -> Some (ok ~payload:(P_name f.of_name) ()))
            | Some (Dir_image (_, path)) -> Some (ok ~payload:(P_name path) ())
            | None -> Some (reply Reply.Invalid_instance))
        | _ -> Some (reply Reply.Bad_operation)
      else None

let lookup_for_walk t ctx component =
  if ctx = Context.Well_known.accounts then Csnh.Stop
  else
  match ino_of_ctx t ctx with
  | None -> Csnh.Stop
  | Some dir -> (
      match Fs.lookup t.fs ~dir component with
      | Some (Fs.Dir_entry ino) -> Csnh.Descend (ctx_of_ino ino)
      | Some (Fs.Remote_link spec) -> Csnh.Cross spec
      | Some (Fs.File_entry _) | None -> Csnh.Stop)

(* Register the serving process and handlers for an existing state
   record; shared by cold start and restart-from-disk. *)
let spawn_server host t scope =
  t.obs <- Kernel.obs (Kernel.domain_of_host host);
  t.obs_host <- Kernel.host_name host;
  let handlers self =
    {
      Csnh.valid_context =
        (fun ctx -> ctx = Context.Well_known.accounts || ino_of_ctx t ctx <> None);
      lookup = lookup_for_walk t;
      handle_csname =
        (fun ~sender msg req ctx remaining ->
          (* Replicated writes arrive stamped with the coordinator's
             (origin, seq): admit each pair once and in order, answer
             retries and replays from the cache (write-all idempotence).
             A gap means this member missed an earlier write: refuse
             with Retry — the out-of-sync rejection the coordinator
             treats as "member did not apply" — and wait for a log
             replay to deliver the missing writes in order. *)
          match msg.Vmsg.wseq with
          | Some { Vmsg.origin; seq } -> (
              match Seq_guard.admit t.guard ~origin ~seq with
              | `Replay (Some cached) -> cached
              | `Replay None -> Vmsg.ok ()
              | `Gap -> Vmsg.reply Reply.Retry
              | `Fresh ->
                  let r = handle_csname t self ~sender msg req ctx remaining in
                  Seq_guard.record t.guard ~origin ~seq r;
                  r)
          | None -> handle_csname t self ~sender msg req ctx remaining);
      handle_other = (fun ~sender msg -> handle_other t ~sender msg);
    }
  in
  let server_pid =
    Kernel.spawn host ~name:t.server_name (fun self ->
        Csnh.serve self ~stats:t.stats (handlers self))
  in
  t.pid <- Some server_pid;
  (match t.admission_cfg with
  | Some cfg -> Admission.install (Kernel.domain_of_host host) server_pid cfg
  | None -> ());
  Kernel.set_pid host ~service:Service.Id.storage server_pid scope

(* [restart_from old host] boots a fresh server process over the state
   of a crashed one — the disk (and the directory structure it holds)
   survived the crash; open instances did not. The new process gets a
   new pid and re-registers the storage service, which is what logical
   prefix bindings re-resolve to (§6). *)
let restart_from old host ?(scope = Service.Both) () =
  let t =
    {
      old with
      instances = Hashtbl.create 16;
      next_instance = 1;
      pid = None;
    }
  in
  (* Anything buffered in the dead server's memory is gone — including
     the cached replies to replicated writes (the applied marks are on
     disk and survive). *)
  Fs.drop_caches t.fs;
  Seq_guard.drop_replies t.guard;
  spawn_server host t scope;
  t

(* [start host ~name ~owner] boots a storage server on [host] with the
   standard layout (/bin as the program directory, /users/<owner> as the
   home directory), and registers the storage service. *)
let start host ~name ?(owner = "system") ?(scope = Service.Both) () =
  let engine = Kernel.engine_of_domain (Kernel.domain_of_host host) in
  let disk = Disk.create engine in
  let filesystem = Fs.create ~owner disk engine in
  let t =
    {
      server_name = name;
      owner;
      fs = filesystem;
      disk;
      engine;
      instances = Hashtbl.create 16;
      next_instance = 1;
      read_ahead = 1;
      home_ino = Fs.root_ino;
      programs_ino = Fs.root_ino;
      users_ino = Fs.root_ino;
      accounts = Hashtbl.create 8;
      stats = Csnh.make_stats name;
      guard = Seq_guard.create ();
      pid = None;
      obs = None;
      obs_host = "";
      admission_cfg = None;
    }
  in
  (* Standard layout. *)
  let bin =
    match Fs.mkdir filesystem ~dir:Fs.root_ino ~owner "bin" with
    | Ok ino -> ino
    | Error _ -> assert false
  in
  let users =
    match Fs.mkdir filesystem ~dir:Fs.root_ino ~owner "users" with
    | Ok ino -> ino
    | Error _ -> assert false
  in
  let home =
    match Fs.mkdir filesystem ~dir:users ~owner owner with
    | Ok ino -> ino
    | Error _ -> assert false
  in
  (match Fs.mkdir filesystem ~dir:Fs.root_ino ~owner "tmp" with
  | Ok _ | Error _ -> ());
  t.programs_ino <- bin;
  t.home_ino <- home;
  t.users_ino <- users;
  Hashtbl.replace t.accounts owner
    { acct_name = owner; acct_created = 0.0; acct_home = home };
  spawn_server host t scope;
  t
