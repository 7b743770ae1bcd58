type t = (string, int ref) Hashtbl.t

let create () = Hashtbl.create 32

let cell t name =
  match Hashtbl.find_opt t name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t name r;
      r

let add t name n =
  let r = cell t name in
  r := !r + n

let incr t name = add t name 1
let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0
let reset t = Hashtbl.reset t

let to_list t =
  Hashtbl.fold (fun k v acc -> (k, !v) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
