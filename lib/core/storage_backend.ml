type pool_info = {
  pool_name : string;
  pool_uuid : Vmm.Uuid.t;
  target_path : string;
  capacity_b : int;
  allocation_b : int;
  pool_active : bool;
  volume_count : int;
}

type vol_info = {
  vol_name : string;
  vol_key : string;
  vol_capacity_b : int;
  vol_format : string;
}

type volume = { capacity_b : int; format : string }

type pool = {
  uuid : Vmm.Uuid.t;
  target_path : string;
  capacity_b : int;
  mutable allocation_b : int;
  mutable active : bool;
  volumes : (string, volume) Hashtbl.t;
}

(* [gen] mirrors {!Net_backend.gen}: completed mutations, bumped inside
   the locked section, read lock-free as the reply cache validity stamp. *)
type t = {
  mutex : Mutex.t;
  pools : (string, pool) Hashtbl.t;
  gen : int Atomic.t;
  scope : string option;  (** see [create] *)
}

let fresh_uuid b name =
  match b.scope with
  | Some scope -> Vmm.Uuid.derive (scope ^ "/pool/" ^ name)
  | None -> Vmm.Uuid.generate ()

let with_lock b f =
  Mutex.lock b.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock b.mutex) f

let generation b = Atomic.get b.gen

let bumping b result =
  (match result with Ok _ -> Atomic.incr b.gen | Error _ -> ());
  result

let ( let* ) = Result.bind

let define_pool_unlocked b ~name ~target_path ~capacity_b =
  if name = "" then Verror.error Verror.Invalid_arg "pool name must not be empty"
  else if Hashtbl.mem b.pools name then
    Verror.error Verror.Dup_name "pool %S already defined" name
  else if capacity_b <= 0 then
    Verror.error Verror.Invalid_arg "pool capacity must be positive"
  else if String.length target_path = 0 || target_path.[0] <> '/' then
    Verror.error Verror.Invalid_arg "pool path %S must be absolute" target_path
  else begin
    let pool =
      {
        uuid = fresh_uuid b name;
        target_path;
        capacity_b;
        allocation_b = 0;
        active = false;
        volumes = Hashtbl.create 8;
      }
    in
    Hashtbl.replace b.pools name pool;
    Ok
      {
        pool_name = name;
        pool_uuid = pool.uuid;
        target_path;
        capacity_b;
        allocation_b = 0;
        pool_active = false;
        volume_count = 0;
      }
  end

let create ?scope () =
  let b =
    { mutex = Mutex.create (); pools = Hashtbl.create 4; gen = Atomic.make 0; scope }
  in
  (match
     define_pool_unlocked b ~name:"default" ~target_path:"/var/lib/ovirt/images"
       ~capacity_b:(100 * 1024 * 1024 * 1024)
   with
   | Ok _ -> ()
   | Error _ -> assert false);
  (Hashtbl.find b.pools "default").active <- true;
  b

let define_pool b ~name ~target_path ~capacity_b =
  with_lock b (fun () ->
      bumping b (define_pool_unlocked b ~name ~target_path ~capacity_b))

let find b name =
  match Hashtbl.find_opt b.pools name with
  | Some pool -> Ok pool
  | None -> Verror.error Verror.No_storage_pool "no storage pool named %S" name

let undefine_pool b name =
  with_lock b (fun () ->
    bumping b @@
      let* pool = find b name in
      if pool.active then Verror.error Verror.Operation_invalid "pool %S is active" name
      else if Hashtbl.length pool.volumes > 0 then
        Verror.error Verror.Operation_invalid "pool %S still holds %d volumes" name
          (Hashtbl.length pool.volumes)
      else begin
        Hashtbl.remove b.pools name;
        Ok ()
      end)

let start_pool b name =
  with_lock b (fun () ->
    bumping b @@
      let* pool = find b name in
      if pool.active then
        Verror.error Verror.Operation_invalid "pool %S is already active" name
      else begin
        pool.active <- true;
        Ok ()
      end)

let stop_pool b name =
  with_lock b (fun () ->
    bumping b @@
      let* pool = find b name in
      if not pool.active then
        Verror.error Verror.Operation_invalid "pool %S is not active" name
      else begin
        pool.active <- false;
        Ok ()
      end)

let pool_info_of name pool =
  {
    pool_name = name;
    pool_uuid = pool.uuid;
    target_path = pool.target_path;
    capacity_b = pool.capacity_b;
    allocation_b = pool.allocation_b;
    pool_active = pool.active;
    volume_count = Hashtbl.length pool.volumes;
  }

let lookup_pool b name =
  with_lock b (fun () -> Result.map (pool_info_of name) (find b name))

let list_pools b =
  with_lock b (fun () ->
      Hashtbl.fold (fun name pool acc -> pool_info_of name pool :: acc) b.pools []
      |> List.sort (fun a b -> compare a.pool_name b.pool_name))

let vol_info_of pool name (v : volume) =
  {
    vol_name = name;
    vol_key = pool.target_path ^ "/" ^ name;
    vol_capacity_b = v.capacity_b;
    vol_format = v.format;
  }

let create_volume b ~pool:pool_name ~name ~capacity_b ~format =
  with_lock b (fun () ->
    bumping b @@
      let* pool = find b pool_name in
      if not pool.active then
        Verror.error Verror.Operation_invalid "pool %S is not active" pool_name
      else if name = "" || String.contains name '/' then
        Verror.error Verror.Invalid_arg "bad volume name %S" name
      else if Hashtbl.mem pool.volumes name then
        Verror.error Verror.Dup_name "volume %S already exists in pool %S" name pool_name
      else if capacity_b <= 0 then
        Verror.error Verror.Invalid_arg "volume capacity must be positive"
      else if pool.allocation_b + capacity_b > pool.capacity_b then
        Verror.error Verror.Resource_exhausted
          "pool %S: %d bytes requested, %d available" pool_name capacity_b
          (pool.capacity_b - pool.allocation_b)
      else begin
        let vol = { capacity_b; format } in
        Hashtbl.replace pool.volumes name vol;
        pool.allocation_b <- pool.allocation_b + capacity_b;
        Ok (vol_info_of pool name vol)
      end)

let delete_volume b ~pool:pool_name ~name =
  with_lock b (fun () ->
    bumping b @@
      let* pool = find b pool_name in
      match Hashtbl.find_opt pool.volumes name with
      | None ->
        Verror.error Verror.No_storage_vol "no volume %S in pool %S" name pool_name
      | Some vol ->
        Hashtbl.remove pool.volumes name;
        pool.allocation_b <- pool.allocation_b - vol.capacity_b;
        Ok ())

let lookup_volume b ~pool:pool_name ~name =
  with_lock b (fun () ->
      let* pool = find b pool_name in
      match Hashtbl.find_opt pool.volumes name with
      | Some vol -> Ok (vol_info_of pool name vol)
      | None ->
        Verror.error Verror.No_storage_vol "no volume %S in pool %S" name pool_name)

let list_volumes b ~pool:pool_name =
  with_lock b (fun () ->
      let* pool = find b pool_name in
      Ok
        (Hashtbl.fold (fun name vol acc -> vol_info_of pool name vol :: acc)
           pool.volumes []
        |> List.sort (fun a b -> compare a.vol_name b.vol_name)))

let volume_by_path b path =
  with_lock b (fun () ->
      let found =
        Hashtbl.fold
          (fun _pool_name pool acc ->
            match acc with
            | Some _ -> acc
            | None ->
              Hashtbl.fold
                (fun name vol acc ->
                  match acc with
                  | Some _ -> acc
                  | None ->
                    if pool.target_path ^ "/" ^ name = path then
                      Some (vol_info_of pool name vol)
                    else None)
                pool.volumes None)
          b.pools None
      in
      match found with
      | Some info -> Ok info
      | None -> Verror.error Verror.No_storage_vol "no volume backs path %S" path)
